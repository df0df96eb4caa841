package verify

import "mepipe/internal/sched"

// The labelled map-based certification graph, the oracle the dense path
// is fuzzed against (FuzzCertifyDenseMatchesGraph): one node per (stage,
// op), edges from per-stage program order and from the dependency rules
// of sched.Deps. A schedule is deadlock-free iff this graph is acyclic
// (see the package comment for why bounded channels add no further
// condition).

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
