package sched

// Topo is a topological order of a schedule's ops over its dependency
// edges and its per-stage program-order chains: the order the certifier
// ranks a schedule in and the simulator solves it in. Ids are DepTable
// (OpIndex) ids.
type Topo struct {
	Rank  []int32 // id -> rank
	Order []int32 // rank -> id
}

// Chain overrides the program-order successor of the ids in [Lo, Hi) with
// Next: a candidate's reordered stage read over its base's chains. The
// zero Chain overrides nothing.
type Chain struct {
	Lo, Hi int32
	Next   []int32
}

func (c Chain) succ(u int32, next []int32) int32 {
	if u >= c.Lo && u < c.Hi {
		return c.Next[u]
	}
	return next[u]
}

// Sort ranks every op of t by Kahn's algorithm over its dependency edges
// and the program-order chains next (id -> successor, -1 at the end of a
// stage), taking ops from a FIFO queue seeded in id order. It returns how
// many ops it ranked: all of them unless a cycle blocks the rest, in which
// case the tables are partial and indeg is positive exactly on the
// unranked ops — Kahn's residual, the ops on or behind a cycle, which does
// not depend on queue order. indeg is otherwise scratch of one entry per
// op. Sort is the one Kahn pass over a schedule: the certifier and the
// simulator session, and through it the critical-path bound, rank with it.
//
// A FIFO Kahn advances every stage about one op per wave, so the ops of a
// stage that are close in program order are close in rank, and a window
// of w positions spans roughly w·P ranks — which keeps Interval short.
func (o *Topo) Sort(t *DepTable, next, indeg []int32) int {
	n := len(next)
	if cap(o.Rank) < n {
		o.Rank = make([]int32, n)
		o.Order = make([]int32, n)
	}
	o.Rank, o.Order = o.Rank[:n], o.Order[:n]
	for id := range indeg[:n] {
		indeg[id] = t.Off[id+1] - t.Off[id]
	}
	for _, j := range next {
		if j >= 0 {
			indeg[j]++
		}
	}
	queue := o.Order[:0]
	for id, deg := range indeg[:n] {
		if deg == 0 {
			queue = append(queue, int32(id))
		}
	}
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		o.Rank[u] = int32(h)
		for _, j := range t.OutID[t.OutOff[u]:t.OutOff[u+1]] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
		if j := next[u]; j >= 0 {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	return len(queue)
}

// Interval re-sorts the ops ranked rlo through rhi by Kahn's algorithm
// over the edges between them: t's dependency edges and the chains next,
// overridden by ch. The interval's sources enter a FIFO queue in rank
// order; the ops come out in the order returned, appended to queue[:0].
// The interval is acyclic exactly when all rhi−rlo+1 of them come out.
// indeg is scratch of one entry per op; the order itself is only read —
// Splice commits a result.
//
// Why an interval suffices for a one-stage move. Let [lo, hi] be the
// positions where a stage's new order differs from the ranked one. Every
// program-order edge the move adds has both ends among the ops at those
// positions, or leads from the op before the window into it, or out of it
// to the op after it; the latter two, and every edge the move leaves
// alone, still point forward in rank. A cycle needs a backward edge, and
// following forward edges from the end of one only raises the rank, so
// every op on a new cycle ranks between the ranked order's ops at lo and
// hi — and an acyclic re-sort of that interval, spliced back, is a
// topological order of the moved schedule.
func (o *Topo) Interval(t *DepTable, next []int32, ch Chain, rlo, rhi int32, indeg, queue []int32) []int32 {
	span := o.Order[rlo : rhi+1]
	for _, u := range span {
		indeg[u] = 0
	}
	for _, u := range span {
		for _, j := range t.OutID[t.OutOff[u]:t.OutOff[u+1]] {
			if r := o.Rank[j]; r >= rlo && r <= rhi {
				indeg[j]++
			}
		}
		if j := ch.succ(u, next); j >= 0 {
			if r := o.Rank[j]; r >= rlo && r <= rhi {
				indeg[j]++
			}
		}
	}
	queue = queue[:0]
	for _, u := range span {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, j := range t.OutID[t.OutOff[u]:t.OutOff[u+1]] {
			if r := o.Rank[j]; r >= rlo && r <= rhi {
				if indeg[j]--; indeg[j] == 0 {
					queue = append(queue, j)
				}
			}
		}
		if j := ch.succ(u, next); j >= 0 {
			if r := o.Rank[j]; r >= rlo && r <= rhi {
				if indeg[j]--; indeg[j] == 0 {
					queue = append(queue, j)
				}
			}
		}
	}
	return queue
}

// Splice writes sorted, a complete re-sort of the interval starting at
// rank rlo, back into the order.
func (o *Topo) Splice(rlo int32, sorted []int32) {
	copy(o.Order[rlo:], sorted)
	for i, u := range sorted {
		o.Rank[u] = rlo + int32(i)
	}
}
