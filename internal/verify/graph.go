package verify

import (
	"sync"

	"mepipe/internal/sched"
)

// The certification graph: one node per (stage, op), edges from per-stage
// program order and from the dependency rules of sched.Deps. A schedule
// is deadlock-free iff this graph is acyclic (see the package comment for
// why bounded channels add no further condition).

type graph struct {
	s     *sched.Schedule
	nodes []Node
	index map[Node]int
	// adj[i] lists the successors of node i; kind[i][j] labels the edge
	// to adj[i][j] as "order" or "dep".
	adj  [][]int32
	kind [][]string
}

func buildGraph(s *sched.Schedule) (*graph, error) {
	g := &graph{s: s, index: make(map[Node]int)}
	id := func(k int, op sched.Op) int {
		n := Node{k, op}
		if i, ok := g.index[n]; ok {
			return i
		}
		g.index[n] = len(g.nodes)
		g.nodes = append(g.nodes, n)
		return len(g.nodes) - 1
	}
	for k, ops := range s.Stages {
		for _, op := range ops {
			id(k, op)
		}
	}
	g.adj = make([][]int32, len(g.nodes))
	g.kind = make([][]string, len(g.nodes))
	addEdge := func(from, to int, kind string) {
		g.adj[from] = append(g.adj[from], int32(to))
		g.kind[from] = append(g.kind[from], kind)
	}
	var deps []sched.Dep
	for k, ops := range s.Stages {
		for idx, op := range ops {
			to := id(k, op)
			if idx > 0 {
				addEdge(id(k, ops[idx-1]), to, "order")
			}
			deps = s.Deps(deps[:0], k, op)
			for _, d := range deps {
				from, ok := g.index[Node{d.Stage, d.Op}]
				if !ok {
					return nil, &MissingDepError{Schedule: s.String(), Node: Node{k, op}, Dep: d}
				}
				addEdge(from, to, "dep")
			}
		}
	}
	return g, nil
}

// edges returns total and cross-stage dependency-edge counts.
func (g *graph) edges() (total, cross int) {
	for i, succs := range g.adj {
		total += len(succs)
		for j, t := range succs {
			if g.kind[i][j] == "dep" && g.nodes[i].Stage != g.nodes[int(t)].Stage {
				cross++
			}
		}
	}
	return total, cross
}

// residual runs Kahn's algorithm and returns the nodes left on cycles
// (empty when the graph is acyclic).
func (g *graph) residual() []int {
	indeg := make([]int32, len(g.nodes))
	for _, succs := range g.adj {
		for _, t := range succs {
			indeg[t]++
		}
	}
	queue := make([]int, 0, len(g.nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, t := range g.adj[n] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, int(t))
			}
		}
	}
	if done == len(g.nodes) {
		return nil
	}
	var res []int
	for i, d := range indeg {
		if d > 0 {
			res = append(res, i)
		}
	}
	return res
}

// minimalCycle extracts a shortest dependency cycle through the residual
// subgraph: every residual node lies on at least one cycle, so a BFS from
// each residual source back to itself finds one; the shortest over all
// sources is the minimal counterexample. To bound work on huge residuals
// the search stops early once a 2-cycle is found and caps the number of
// BFS sources.
func (g *graph) minimalCycle(residual []int) ([]Node, []string) {
	inRes := make([]bool, len(g.nodes))
	for _, i := range residual {
		inRes[i] = true
	}
	const maxSources = 256
	sources := residual
	if len(sources) > maxSources {
		sources = sources[:maxSources]
	}
	var best []int
	for _, src := range sources {
		cyc := g.bfsCycle(src, inRes, len(best))
		if cyc != nil && (best == nil || len(cyc) < len(best)) {
			best = cyc
			if len(best) == 2 {
				break
			}
		}
	}
	if best == nil {
		// Unreachable: residual nodes always close a cycle. Fall back to
		// reporting the first residual node against itself.
		best = []int{residual[0]}
	}
	nodes := make([]Node, len(best))
	kinds := make([]string, len(best))
	for i, n := range best {
		nodes[i] = g.nodes[n]
		next := best[(i+1)%len(best)]
		kinds[i] = g.edgeKind(n, next)
	}
	return nodes, kinds
}

// bfsCycle finds a shortest path src -> ... -> src within the residual
// subgraph, returned as the node sequence of the cycle (src first).
// Returns nil if no cycle through src exists or it would not beat bound
// (0 = unbounded).
func (g *graph) bfsCycle(src int, inRes []bool, bound int) []int {
	parent := make(map[int]int, 64)
	queue := []int{src}
	depth := map[int]int{src: 0}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if bound > 0 && depth[n]+1 >= bound {
			continue // cannot beat the best cycle found so far
		}
		for _, t32 := range g.adj[n] {
			t := int(t32)
			if !inRes[t] {
				continue
			}
			if t == src {
				// Close the cycle: walk parents back from n to src.
				var rev []int
				for cur := n; cur != src; cur = parent[cur] {
					rev = append(rev, cur)
				}
				cyc := []int{src}
				for i := len(rev) - 1; i >= 0; i-- {
					cyc = append(cyc, rev[i])
				}
				return cyc
			}
			if _, seen := depth[t]; !seen {
				depth[t] = depth[n] + 1
				parent[t] = n
				queue = append(queue, t)
			}
		}
	}
	return nil
}

// edgeKind returns the label of the from -> to edge ("dep" wins when both
// a program-order and a data edge connect the pair).
func (g *graph) edgeKind(from, to int) string {
	kind := "order"
	for j, t := range g.adj[from] {
		if int(t) == to {
			if g.kind[from][j] == "dep" {
				return "dep"
			}
			kind = g.kind[from][j]
		}
	}
	return kind
}

// checkAcyclic proves deadlock-freedom, filling the certificate's graph
// statistics, or returns the minimal counterexample cycle. The proof runs
// on the dense arithmetic op index (no hashing, no per-node allocation);
// only when a cycle exists — the rare failure path — is the labelled
// map-based graph rebuilt to extract the same minimal counterexample the
// original implementation reported.
func checkAcyclic(s *sched.Schedule, cert *Certificate) error {
	ok, handled, err := kahnDense(s, cert)
	if err != nil {
		return err
	}
	if handled && ok {
		return nil
	}
	g, err := buildGraph(s)
	if err != nil {
		return err
	}
	if !handled {
		cert.Nodes = len(g.nodes)
		cert.Edges, cert.CrossEdges = g.edges()
	}
	res := g.residual()
	if res == nil {
		return nil
	}
	nodes, kinds := g.minimalCycle(res)
	return &CycleError{Schedule: s.String(), Cycle: nodes, Kind: kinds}
}

// kahnScratch recycles the dense certification pass's working arrays:
// sweep workers certify dozens of schedules back to back, and the arrays
// are shape-sized, so pooling removes certification's entire allocation
// profile on the hot path.
type kahnScratch struct {
	seen  []bool
	next  []int32
	indeg []int32
	queue []int32
}

var kahnPool = sync.Pool{New: func() any { return new(kahnScratch) }}

// kgrow returns s resized to n elements, reusing capacity when it can.
// Contents are NOT cleared — callers overwrite every element they read.
func kgrow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// kahnDense runs Kahn's algorithm over the dense op index, filling the
// certificate's node/edge statistics. The edge universe is never
// materialized: in-degrees come from the schedule's cached dependency
// table row widths, successors are walked through the table's dependents
// CSR plus a per-stage program-order chain, and the edge statistics are
// cached on the table itself. It reports ok=false when the graph has a
// cycle (counterexample extraction is the caller's job) and handled=false
// on tables the fast path does not model — incomplete op universes or
// out-of-shape deps, both only reachable with AssumeComplete or
// hand-built placements — which fall back to the labelled map-based
// graph.
func kahnDense(s *sched.Schedule, cert *Certificate) (ok, handled bool, err error) {
	t := s.DepTable()
	x := t.Ix
	total := x.Total()
	n := 0
	nonEmpty := 0
	for k := range s.Stages {
		if len(s.Stages[k]) > 0 {
			nonEmpty++
		}
		n += len(s.Stages[k])
	}
	if n != total || t.Neg > 0 {
		return false, false, nil
	}
	sc := kahnPool.Get().(*kahnScratch)
	defer kahnPool.Put(sc)
	sc.seen = kgrow(sc.seen, total)
	for i := range sc.seen {
		sc.seen[i] = false
	}
	sc.next = kgrow(sc.next, total)
	sc.indeg = kgrow(sc.indeg, total)
	// One pass over the stages pins the op universe (every op indexes,
	// no duplicates — with n == total that makes coverage exact), seeds
	// in-degrees from the table rows, and chains program order.
	for k, ops := range s.Stages {
		prev := int32(-1)
		for idx, op := range ops {
			id := x.ID(k, op)
			if id < 0 || sc.seen[id] {
				return false, false, nil
			}
			sc.seen[id] = true
			deg := t.Off[id+1] - t.Off[id]
			if idx > 0 {
				deg++
				sc.next[prev] = id
			}
			sc.indeg[id] = deg
			prev = id
		}
		if prev >= 0 {
			sc.next[prev] = -1
		}
	}
	cert.Nodes = total
	cert.Edges = len(t.ID) + n - nonEmpty
	cert.CrossEdges = t.Cross
	sc.queue = sc.queue[:0]
	for id := 0; id < total; id++ {
		if sc.indeg[id] == 0 {
			sc.queue = append(sc.queue, int32(id))
		}
	}
	done := 0
	dec := func(j int32) {
		sc.indeg[j]--
		if sc.indeg[j] == 0 {
			sc.queue = append(sc.queue, j)
		}
	}
	for len(sc.queue) > 0 {
		u := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		done++
		for _, j := range t.OutID[t.OutOff[u]:t.OutOff[u+1]] {
			dec(j)
		}
		if j := sc.next[u]; j >= 0 {
			dec(j)
		}
	}
	return done == total, true, nil
}
