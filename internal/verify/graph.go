package verify

import (
	"fmt"
	"sync"

	"mepipe/internal/sched"
)

// universeError reports f, the first fault sched.Program.Load found in s,
// as a counterexample: an op that does not fit the shape or is listed
// twice is a *ShapeError, a short stage an *IncompleteError naming its
// first missing member.
func universeError(s *sched.Schedule, f sched.Fault) error {
	switch f.Kind {
	case sched.Misfit:
		return opShapeError(s, f.Stage, f.Op)
	case sched.Duplicate:
		return &ShapeError{Schedule: s.String(),
			Detail: fmt.Sprintf("stage %d: duplicate op %v", f.Stage, f.Op)}
	}
	return &IncompleteError{Schedule: s.String(), Stage: f.Stage, Missing: f.Op}
}

// checkAcyclic proves deadlock-freedom on the dense op index, filling the
// certificate's graph statistics, or returns the counterexample: the
// first dependency outside the shape (sched.Schedule.AbsentDep), else the
// minimal cycle. sc has loaded the table: the whole universe, its program
// order chained.
func checkAcyclic(s *sched.Schedule, cert *Certificate, sc *certScratch) error {
	t := s.DepTable()
	if k, op, d, ok := s.AbsentDep(); ok {
		return &MissingDepError{Schedule: cert.Schedule, Node: Node{k, op}, Dep: d}
	}
	if kahnDense(s, t, cert, sc) {
		return nil
	}
	nodes, kinds := sc.minimalCycle(s)
	return &CycleError{Schedule: cert.Schedule, Cycle: nodes, Kind: kinds}
}

// certScratch recycles certification's working arrays: sweep workers and
// the optimizer certify many schedules back to back, and the arrays are
// shape-sized, so pooling removes certification's allocation profile on
// the hot path — on the failure path as well as the success path.
type certScratch struct {
	// The table loaded onto its universe (sched.Program.Load, the one
	// universe pass the simulator session shares): every
	// position's id, read by every later pass, and every id's
	// program-order successor and position in its stage.
	sched.Program

	// The topological order and Sort's in-degree scratch: unmet[id] counts
	// the predecessors of id not yet ranked, so after a short Sort it is
	// positive exactly on the ops it left unranked.
	unmet []int32
	topo  sched.Topo

	// Counterexample extraction: the unranked ops' successor CSR in
	// position order, and epoch-stamped BFS state.
	queue     []int32
	radjOff   []int32
	radj      []int32
	stamp     []uint32
	epoch     uint32
	depth     []int32
	parent    []int32
	sources   []int32
	cyc, best []int32

	// The memory sweep, indexed by OpIndex.FamilyOf.
	live   []bool
	bytes  []int64
	pieces []int32
}

var certPool = sync.Pool{New: func() any { return new(certScratch) }}

// kgrow returns s resized to n elements, reusing capacity when it can.
// Contents are NOT cleared — callers overwrite every element they read.
func kgrow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// kahnDense ranks the complete, in-shape table with sched.Topo.Sort,
// filling the certificate's node/edge statistics, and reports whether it
// is acyclic. The edge universe is never materialized: Sort walks the
// schedule's cached dependency table plus the program-order chains
// loaded into sc.Next, and the edge statistics are cached on
// the table itself. On a cycle it leaves the unranked in-degrees in
// sc.unmet for minimalCycle.
func kahnDense(s *sched.Schedule, t *sched.DepTable, cert *Certificate, sc *certScratch) bool {
	total := t.Ix.Total()
	cert.Nodes = total
	// Every stage holds its share of the universe, so each contributes
	// one program-order edge fewer than its ops.
	cert.Edges = len(t.ID) + total - s.P
	cert.CrossEdges = t.Cross
	sc.unmet = kgrow(sc.unmet, total)
	return sc.topo.Sort(t, sc.Next, sc.unmet) == total
}

// minimalCycle extracts a shortest dependency cycle through the ops
// kahnDense left unranked in sc.unmet (an op is unranked iff it still has
// an unmet predecessor, and every unranked op lies on a cycle): a BFS from
// each unranked source back to itself, in ascending position order,
// capped at maxSources sources, bounded by the best length so far and
// stopped at the first 2-cycle. It reproduces the labelled map graph
// oracle's answer exactly.
func (sc *certScratch) minimalCycle(s *sched.Schedule) ([]Node, []string) {
	t := s.DepTable()
	x := t.Ix
	total := x.Total()
	sc.sources = sc.sources[:0]
	for _, id := range sc.IDs {
		if sc.unmet[id] > 0 && len(sc.sources) < maxSources {
			sc.sources = append(sc.sources, id)
		}
	}
	sc.buildUnrankedAdj(t)
	if len(sc.stamp) < total {
		sc.stamp = make([]uint32, total)
		sc.epoch = 0
	}
	sc.depth = kgrow(sc.depth, total)
	sc.parent = kgrow(sc.parent, total)

	best := sc.best[:0]
	for _, src := range sc.sources {
		cyc := sc.bfsCycle(src, len(best))
		if cyc != nil && (len(best) == 0 || len(cyc) < len(best)) {
			// Keep the winner in one buffer and let the next search
			// reuse the other.
			sc.cyc, best = best, cyc
			if len(best) == 2 {
				break
			}
		}
	}
	sc.best = best
	if len(best) == 0 {
		// Unreachable: unranked ops always close a cycle. Report the
		// first unranked op against itself.
		best = append(best, sc.sources[0])
	}
	nodes := make([]Node, len(best))
	kinds := make([]string, len(best))
	for i, id := range best {
		k := x.Stage(id)
		nodes[i] = Node{Stage: k, Op: s.Stages[k][sc.Pos[id]]}
		kinds[i] = "order"
		next := best[(i+1)%len(best)]
		for _, j := range t.OutID[t.OutOff[id]:t.OutOff[id+1]] {
			if j == next {
				kinds[i] = "dep"
				break
			}
		}
	}
	return nodes, kinds
}

// maxSources caps how many unranked ops minimalCycle searches from.
const maxSources = 256

// buildUnrankedAdj lays out, for every unranked op, its unranked
// successors — the program-order successor plus the table's dependents —
// sorted by position, the order the map graph oracle visits them in. Ids
// are stage-major and every stage holds per ops, so an op's position in
// the concatenated lists is its stage's first id plus its Pos.
func (sc *certScratch) buildUnrankedAdj(t *sched.DepTable) {
	total := len(sc.unmet)
	per, pos := int32(t.Ix.PerStage()), sc.Pos
	at := func(id int32) int32 { return id/per*per + pos[id] }
	sc.radjOff = kgrow(sc.radjOff, total+1)
	sc.radj = sc.radj[:0]
	for u := 0; u < total; u++ {
		sc.radjOff[u] = int32(len(sc.radj))
		if sc.unmet[u] <= 0 {
			continue
		}
		start := len(sc.radj)
		if j := sc.Next[u]; j >= 0 && sc.unmet[j] > 0 {
			sc.radj = append(sc.radj, j)
		}
		for _, j := range t.OutID[t.OutOff[u]:t.OutOff[u+1]] {
			if sc.unmet[j] > 0 {
				sc.radj = append(sc.radj, j)
			}
		}
		row := sc.radj[start:]
		for i := 1; i < len(row); i++ {
			for h := i; h > 0 && at(row[h]) < at(row[h-1]); h-- {
				row[h], row[h-1] = row[h-1], row[h]
			}
		}
	}
	sc.radjOff[total] = int32(len(sc.radj))
}

// bfsCycle finds, over the unranked ops' CSR, a shortest cycle through src
// shorter than bound (0 = unbounded), src first, or nil. The result
// aliases sc.cyc.
func (sc *certScratch) bfsCycle(src int32, bound int) []int32 {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
	queue := append(sc.queue[:0], src)
	sc.stamp[src] = sc.epoch
	sc.depth[src] = 0
	for h := 0; h < len(queue); h++ {
		n := queue[h]
		if bound > 0 && int(sc.depth[n])+1 >= bound {
			continue // cannot beat the best cycle found so far
		}
		for _, t := range sc.radj[sc.radjOff[n]:sc.radjOff[n+1]] {
			if t == src {
				// Close the cycle: walk parents back from n to src,
				// then reverse the path behind src.
				cyc := append(sc.cyc[:0], src)
				for cur := n; cur != src; cur = sc.parent[cur] {
					cyc = append(cyc, cur)
				}
				for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				sc.queue, sc.cyc = queue, cyc
				return cyc
			}
			if sc.stamp[t] != sc.epoch {
				sc.stamp[t] = sc.epoch
				sc.depth[t] = sc.depth[n] + 1
				sc.parent[t] = n
				queue = append(queue, t)
			}
		}
	}
	sc.queue = queue
	return nil
}
