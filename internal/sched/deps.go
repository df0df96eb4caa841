package sched

// Dependency semantics. These rules are the single source of truth shared by
// the validator, the discrete-event simulator, and the real goroutine
// runtime.
//
// Forward F(m, i, j)@k — slice i of micro-batch m through local chunk j of
// stage k, with g = Place.Global(k, j):
//
//  1. pipeline input: the same slice through the preceding global chunk
//     (F(m, i, ·) on Host(g−1)); absent for g = 0.
//  2. KV availability: causal attention of slice i reads the keys/values of
//     every preceding slice at the same layers, so F(m, i−1, j)@k must have
//     completed (Fig 3 of the paper); absent for i = 0.
//
// Backward B/BAct(m, i, j)@k:
//
//  1. gradient input: the same slice's backward on the succeeding global
//     chunk (backward traverses chunks in reverse order); for the final
//     chunk g = PV−1 the gradient originates at the loss, which requires
//     the slice's own forward F(m, i, j)@k.
//  2. KV gradients: d(K,V) of slice i accumulates contributions from every
//     later slice's backward at the same layers, so B(m, i+1, j)@k must
//     have completed; absent for i = S−1. (This is why the first backward
//     of a sample requires all its forwards: B of slice S−1 needs F of
//     slice S−1, which transitively needs all earlier slices.)
//  3. retained activations: the slice's own forward at this (stage, chunk),
//     F(m, i, j)@k. (Transitively implied by 1+2 but stated explicitly so
//     validation does not depend on that reasoning.)
//
// Weight gradient W/WPiece(m, i, j)@k: requires BAct(m, i, j)@k — and
// nothing else, which is what lets §5 defer and interleave them freely.

// Dep is a dependency edge: the op that must complete, and the stage it
// runs on. Cross-stage edges imply communication.
type Dep struct {
	Stage int
	Op    Op
}

// Deps appends the dependencies of op (running on stage) to dst and returns
// it. The caller chooses B vs BAct consistently with s.SplitBW.
func (s *Schedule) Deps(dst []Dep, stage int, op Op) []Dep {
	bKind := B
	if s.SplitBW {
		bKind = BAct
	}
	switch op.Kind {
	case F:
		g := s.Place.Global(stage, op.Chunk)
		if g > 0 {
			ps, pl := s.Place.Host(g - 1)
			dst = append(dst, Dep{ps, Op{Kind: F, Micro: op.Micro, Slice: op.Slice, Chunk: pl}})
		}
		if op.Slice > 0 {
			dst = append(dst, Dep{stage, Op{Kind: F, Micro: op.Micro, Slice: op.Slice - 1, Chunk: op.Chunk}})
		}
	case B, BAct:
		g := s.Place.Global(stage, op.Chunk)
		if g < s.TotalChunks()-1 {
			ns, nl := s.Place.Host(g + 1)
			dst = append(dst, Dep{ns, Op{Kind: bKind, Micro: op.Micro, Slice: op.Slice, Chunk: nl}})
		}
		if op.Slice < s.S-1 {
			dst = append(dst, Dep{stage, Op{Kind: bKind, Micro: op.Micro, Slice: op.Slice + 1, Chunk: op.Chunk}})
		}
		dst = append(dst, Dep{stage, Op{Kind: F, Micro: op.Micro, Slice: op.Slice, Chunk: op.Chunk}})
	case W, WPiece:
		dst = append(dst, Dep{stage, Op{Kind: bKind, Micro: op.Micro, Slice: op.Slice, Chunk: op.Chunk}})
	}
	return dst
}

// CrossStage reports whether a dependency edge carries a tensor between two
// different stages (and therefore costs communication).
func (d Dep) CrossStage(stage int) bool { return d.Stage != stage }

// DepTable is the dense dependency structure of a schedule shape: for the
// op with dense id i (per OpIndex), ID[Off[i]:Off[i+1]] holds the dense ids
// of its dependencies in Deps order, and OutID[OutOff[i]:OutOff[i+1]] the
// ids of its dependents (the reverse CSR, ascending, negatives dropped).
// The table depends only on the shape and placement — never on the order
// of Stages — so the generator, the certifier, and the simulator sessions
// can share one table per schedule instead of re-deriving, re-indexing,
// and re-scattering every Dep three times.
type DepTable struct {
	Ix  OpIndex
	Off []int32
	ID  []int32
	// OutOff/OutID are the dependents CSR over the same ids.
	OutOff []int32
	OutID  []int32
	// Cross is the number of cross-stage dependency edges, and Neg the
	// number of out-of-shape (-1) entries in ID; both are cached for the
	// certifier's statistics and fast-path gate.
	Cross int
	Neg   int
}

// AbsentDep returns the first dependency, in stage-list order and Deps
// order within an op, whose producer lies outside the schedule's shape
// (a placement whose Host maps off the grid), with the stage and op that
// depend on it; ok is false when there is none. The cached DepTable
// counts such entries, so a schedule without one pays a single lookup.
func (s *Schedule) AbsentDep() (stage int, op Op, dep Dep, ok bool) {
	if s.DepTable().Neg == 0 {
		return 0, Op{}, Dep{}, false
	}
	x := s.indexer()
	var deps []Dep
	for k, ops := range s.Stages {
		for _, op := range ops {
			deps = s.Deps(deps[:0], k, op)
			for _, d := range deps {
				if x.id(d.Stage, d.Op) < 0 {
					return k, op, d, true
				}
			}
		}
	}
	return 0, Op{}, Dep{}, false
}

// DepTable returns the schedule's dense dependency table, building and
// caching it on first use (the generator pre-populates the cache). The
// cache is keyed by the shape fields, so mutating P/V/S/N/SplitBW/WPieces
// invalidates it automatically; swapping Place for a placement with
// different host/global maps while keeping the shape is not detected —
// construct a fresh Schedule instead.
//
// Dependency rules never cross micro-batches and the id layout keeps
// micro as the outermost per-stage coordinate, so the micro-m rows of a
// stage are the micro-0 rows shifted by m·V·S·slots. The builder derives
// only the micro-0 rows through Deps and shift-copies the rest, which is
// where generation-heavy paths (the sweep engine generates every grid
// point) win most of the table's cost back.
func (s *Schedule) DepTable() *DepTable {
	x := s.indexer()
	if s.depTab != nil && s.depTab.Ix.x == x {
		return s.depTab
	}
	total := x.total()
	vss := x.perStage / x.n // ops per (stage, micro) block
	t := &DepTable{Ix: OpIndex{x}, Off: make([]int32, total+1), ID: make([]int32, 0, 4*total)}
	var deps []Dep
	for k := 0; k < x.p; k++ {
		base := k * x.perStage
		m0 := len(t.ID)
		for rel := 0; rel < vss; rel++ {
			id := base + rel
			stage, op := x.opAt(int32(id))
			deps = s.Deps(deps[:0], stage, op)
			for _, d := range deps {
				t.ID = append(t.ID, x.id(d.Stage, d.Op))
			}
			t.Off[id+1] = int32(len(t.ID))
		}
		m0row := t.ID[m0:len(t.ID):len(t.ID)]
		for m := 1; m < x.n; m++ {
			shift := int32(m * vss)
			for _, v0 := range m0row {
				if v0 < 0 {
					t.ID = append(t.ID, v0)
				} else {
					t.ID = append(t.ID, v0+shift)
				}
			}
			mbase := base + m*vss
			for rel := 0; rel < vss; rel++ {
				t.Off[mbase+rel+1] = t.Off[mbase+rel] + (t.Off[base+rel+1] - t.Off[base+rel])
			}
		}
	}
	// Reverse CSR and edge statistics. Dependents never cross micros
	// either, so the micro-m dependents row is the micro-0 row shifted by
	// m·vss too: count and scatter the micro-0 rows only (in id order, so
	// each row comes out ascending), then shift-copy them.
	perStage := int32(x.perStage)
	m0 := func(id int32) int32 { return id/perStage*int32(vss) + id%perStage } // micro-0 slot
	cnt := make([]int32, x.p*vss)
	for k := 0; k < x.p; k++ {
		for id := int32(k * x.perStage); id < int32(k*x.perStage+vss); id++ {
			for _, from := range t.ID[t.Off[id]:t.Off[id+1]] {
				if from < 0 {
					t.Neg++
					continue
				}
				cnt[m0(from)]++
				if from/perStage != int32(k) {
					t.Cross++
				}
			}
		}
	}
	t.Neg *= x.n
	t.Cross *= x.n
	t.OutOff = make([]int32, total+1)
	for id := 0; id < total; id++ {
		rel := id % x.perStage % vss
		t.OutOff[id+1] = t.OutOff[id] + cnt[id/x.perStage*vss+rel]
	}
	t.OutID = make([]int32, t.OutOff[total])
	clear(cnt) // now the micro-0 rows' fill cursors
	for k := 0; k < x.p; k++ {
		for id := int32(k * x.perStage); id < int32(k*x.perStage+vss); id++ {
			for _, from := range t.ID[t.Off[id]:t.Off[id+1]] {
				if from < 0 {
					continue
				}
				c := m0(from)
				t.OutID[t.OutOff[from]+cnt[c]] = id
				cnt[c]++
			}
		}
	}
	for k := 0; k < x.p; k++ {
		base := k * x.perStage
		for m := 1; m < x.n; m++ {
			shift := int32(m * vss)
			for rel := 0; rel < vss; rel++ {
				row0 := t.OutID[t.OutOff[base+rel]:t.OutOff[base+rel+1]]
				row := t.OutID[t.OutOff[base+m*vss+rel]:]
				for j, v := range row0 {
					row[j] = v + shift
				}
			}
		}
	}
	s.depTab = t
	return t
}
