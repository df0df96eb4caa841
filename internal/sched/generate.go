package sched

import (
	"fmt"
	"math"
	"sync"

	"mepipe/internal/errs"
)

// Estimator supplies the relative durations the generator uses to order
// operations. Generation needs only *relative* costs (which op finishes
// first); the simulator later replays the order against exact costs.
type Estimator interface {
	// OpTime returns the duration of op on stage.
	OpTime(stage int, op Op) float64
	// CommTime returns the delay for op's output to become usable by a
	// dependent on another stage.
	CommTime(from, to int, op Op) float64
}

// UniformEst is the unit-cost estimator used for analytic comparisons:
// every forward costs F, every fused backward B, and so on, regardless of
// slice (no attention imbalance) with a fixed per-hop communication delay.
type UniformEst struct {
	F, BFused, BAct, W, WPiece, Comm float64
}

// Unit returns the conventional unit-cost estimator (B = 2F, split halves
// B into equal act/weight parts).
func Unit() UniformEst {
	return UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0, Comm: 0}
}

func (u UniformEst) OpTime(stage int, op Op) float64 {
	switch op.Kind {
	case F:
		return u.F
	case B:
		return u.BFused
	case BAct:
		return u.BAct
	case W:
		return u.W
	case WPiece:
		return u.WPiece
	}
	return 0
}

func (u UniformEst) CommTime(from, to int, op Op) float64 { return u.Comm }

// MicroInvariantCosts implements MicroInvariant: uniform costs read only
// the op kind.
func (u UniformEst) MicroInvariantCosts() bool { return true }

// MicroInvariant is an optional capability of cost models: a model
// returning true promises that OpTime, CommTime, and any per-op byte
// queries ignore Op.Micro entirely (every micro-batch of a family costs
// the same, bitwise). The generator and the simulator sessions then query
// only the micro-0 twin of each op and copy the value — an exact
// optimization, since the model vouches the twin's result IS the op's
// result. Models that cannot promise this simply don't implement the
// interface and keep the per-op path.
type MicroInvariant interface {
	MicroInvariantCosts() bool
}

// GenOptions parameterises the greedy event-driven generator. The same
// machinery produces every schedule family:
//
//	GPipe     cap=∞, fused B
//	TeraPipe  cap=∞, fused B, S>1
//	DAPPLE    cap(k)=P−k, fused B
//	VPP       cap(k)=VP+P−1−k, round-robin placement, fused B
//	Hanayo    wave placement, fused B
//	ZB-1P     DAPPLE caps, split B, whole W gap-filling
//	ZBV       wave placement, split B
//	SVPP      S>1, cap(k)=f−k with f the §4.2 memory knob
//	MEPipe    SVPP + split B + WPiece gap-filling (§5)
type GenOptions struct {
	Name string

	P, V, S, N int
	Place      Placement

	SplitBW bool
	// WPieces decomposes each weight-gradient op into this many GEMM
	// pieces (§5). 0 with SplitBW schedules whole W ops.
	WPieces int

	// InFlightCap bounds, per stage, the number of forward families whose
	// backward has not yet been scheduled — the f knob of §4.2. The
	// generator always reserves headroom for the oldest live micro-batch
	// so the cap can never deadlock the pipeline; caps below V·S are
	// raised to V·S (the theoretical minimum, §4.2).
	InFlightCap func(stage int) int

	// WDeferCap bounds, per stage, how many weight-gradient ops may be
	// outstanding (BAct done, W not). Exceeding it forces the next op to
	// be a W: this is how later stages are allowed to defer more W than
	// stage 0 (§5). Negative means unlimited.
	WDeferCap func(stage int) int

	// Reschedule enables the Fig-6 backward rescheduling: among ready
	// backwards, prefer the one with the most descendants.
	Reschedule bool

	Est Estimator
}

// node tracks generator state for one op on one stage. Dependents live in
// the generator's shared CSR table (outOff/outID), not per-node slices.
type node struct {
	op        Op
	dur       float64
	remaining int     // unscheduled dependencies
	ready     float64 // max(dep finish + comm) once remaining == 0
	scheduled bool
}

type genStage struct {
	free     float64
	inflight int
	deferred int // outstanding W families (split mode)
	// ready op ids by class. readyF/readyB are scanned in full (their
	// sizes are bounded by the in-flight caps or the pipeline width);
	// readyW queues whole families: for each family with ready
	// weight-gradient work, the id of its next uncommitted piece, kept
	// sorted (priority order, see insertW) with an advancing head. A
	// family's weight-gradient ops all become ready when its BAct
	// commits and hold consecutive ids, so the head entry is the
	// smallest ready id; and their only dependency (the same-stage BAct)
	// has always already executed — every one starts at st.free, so the
	// head IS the best candidate.
	readyF, readyB []int32
	readyW         []int32
	wHead          int
	// cached pick() result, recomputed only when the stage's state
	// changed since the last decision (dirty).
	cached candidate
	dirty  bool
	// bookkeeping for the oldest-micro headroom rule
	unschedF []int // per micro: unscheduled F ops on this stage
	unschedB []int // per micro: unscheduled B-class ops on this stage
	oldest   int   // smallest micro with unscheduled B ops
	pending  int
	order    []Op
}

// Generate builds a schedule per opt. The returned schedule is valid by
// construction (see the proof note at the end of the function); callers
// binding schedules from any other source should run Validate or
// verify.Certify themselves.
func Generate(opt GenOptions) (*Schedule, error) {
	s := &Schedule{
		Name: opt.Name, P: opt.P, V: opt.V, S: opt.S, N: opt.N,
		SplitBW: opt.SplitBW, WPieces: opt.WPieces, Place: opt.Place,
	}
	if s.Place == nil {
		s.Place = RoundRobin{P: opt.P, V: opt.V}
	}
	if opt.Est == nil {
		opt.Est = Unit()
	}
	if opt.P <= 0 || opt.V <= 0 || opt.S <= 0 || opt.N <= 0 {
		return nil, fmt.Errorf("sched: generate %s: non-positive shape p=%d v=%d s=%d n=%d: %w", opt.Name, opt.P, opt.V, opt.S, opt.N, errs.ErrIncompatible)
	}
	g := genPool.Get().(*generator)
	s.back = backingPool.Get().(*backing)
	g.reset(s, opt)
	err := g.run()
	if err == nil {
		// The event-driven run is a constructive validity proof, so no
		// Validate pass is needed: an op commits only after every dependency
		// has already committed, and stage order is commit order, so every
		// program-order and data edge points forward in commit time — the
		// certification graph is acyclic by construction. Each op commits at
		// most once (the scheduled flag) and the run ends only at done ==
		// total, so each stage holds its complete op universe with no
		// duplicates. The per-stage count below is the only part of
		// well-formedness the loop invariants don't pin down structurally;
		// consumers that accept schedules from outside the generator
		// (deserialization, hand-built tables) still run Validate or
		// verify.Certify themselves.
		for k := range g.stages {
			if g.stages[k].pending != 0 || len(g.stages[k].order) != g.x.perStage {
				err = fmt.Errorf("sched: generator produced invalid schedule: stage %d has %d ops, want %d: %w",
					k, len(g.stages[k].order), g.x.perStage, errs.ErrUncertified)
				break
			}
		}
	}
	if err == nil {
		a := s.back
		a.stages = sgrow(a.stages, s.P)
		s.Stages = a.stages[:s.P:s.P]
		for k := range g.stages {
			s.Stages[k] = g.stages[k].order
		}
	}
	// Drop references the pool must not retain (estimator, placement,
	// schedule, dependency table, stage lists) and recycle the arenas.
	for k := range g.stages {
		g.stages[k].order = nil
	}
	g.s, g.opt, g.dt = nil, GenOptions{}, nil
	genPool.Put(g)
	if err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// backing is the pooled storage of a schedule: its dependency table's
// arrays with the table builder's scratch and, when Generate built it, the
// slab its stage lists are carved from and the stage-list headers. Only
// capacity is ever reused, never contents: Generate overwrites every
// element a schedule reads. A schedule holds its backing until Release
// returns it.
type backing struct {
	ops    []Op
	stages [][]Op
	dt     DepTable
	cnt    []int32
}

var backingPool = sync.Pool{New: func() any { return new(backing) }}

// Release hands a schedule's dependency table and, when Generate built
// it, its stage lists back for reuse by a later Generate, and nils the
// schedule's Stages and cached table, so a use after release fails loudly.
// Only the schedule's sole owner may release it, once, after every reader
// of its lists and table is done (a bound sim.Session included); copies
// of the Schedule value share its arrays.
func (s *Schedule) Release() {
	b := s.back
	s.Stages, s.back = nil, nil
	if b != nil {
		backingPool.Put(b)
	}
}

// genPool recycles generator arenas across Generate calls: the node,
// finish, and dependents-CSR tables dominate generation's allocation
// profile, and sweep workers generate dozens of schedules back to back.
var genPool = sync.Pool{New: func() any { return new(generator) }}

// sgrow returns s resized to n elements, reusing capacity when it can.
// Contents are NOT cleared — reset overwrites every element it reads.
func sgrow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

type generator struct {
	s      *Schedule
	opt    GenOptions
	x      opIndexer
	nodes  []node
	stages []genStage
	finish []float64
	// dt is the schedule's cached dependency table; its dependents CSR
	// (OutID rows in increasing id order, the order the old per-node
	// append produced) is the generator's wake list, so wake order — and
	// with it every downstream tie-break — is unchanged.
	dt    *DepTable
	total int
	done  int
}

// reset (re)initializes the generator for s, reusing pooled arenas. Every
// element of every reused array is overwritten here or append-built, so no
// clearing pass is needed beyond the counting tables.
func (g *generator) reset(s *Schedule, opt GenOptions) {
	g.s, g.opt, g.x = s, opt, s.indexer()
	// Build the op universe. Ids follow the indexer's arithmetic
	// enumeration (stage, micro, chunk, slice, family slot) — the same
	// order the map-based build appended ops in.
	total := g.x.total()
	g.total, g.done = total, 0
	g.nodes = sgrow(g.nodes, total)
	g.finish = sgrow(g.finish, total)
	g.stages = sgrow(g.stages, s.P)
	a := s.back
	a.ops = sgrow(a.ops, total)
	for k := 0; k < s.P; k++ {
		st := &g.stages[k]
		st.free, st.inflight, st.deferred = 0, 0, 0
		st.readyF = st.readyF[:0]
		st.readyB = st.readyB[:0]
		st.readyW = st.readyW[:0]
		st.wHead = 0
		st.cached = candidate{}
		st.dirty = false
		st.unschedF = sgrow(st.unschedF, s.N)
		st.unschedB = sgrow(st.unschedB, s.N)
		for m := 0; m < s.N; m++ {
			st.unschedF[m] = s.V * s.S
			st.unschedB[m] = s.V * s.S
		}
		st.oldest = 0
		st.pending = g.x.perStage
		// The order list escapes into the returned Schedule: it is carved
		// from the schedule's slab, capped at the stage's end so an append
		// to one stage's list can never write into the next.
		lo := k * g.x.perStage
		st.order = a.ops[lo:lo:(lo + g.x.perStage)]
	}
	// Decode every op and seed its dependency count. The dense dependency
	// table — built here once, into the schedule's backing, and cached on
	// the schedule — is what the certifier and the simulator sessions will
	// reuse, so every Dep of this schedule is derived and indexed exactly
	// once across the whole generate → certify → bind path; its dependents
	// CSR doubles as the generator's wake list. Micro-invariant estimators
	// (see MicroInvariant) are queried only for the micro-0 twin of each
	// op — the copies are bitwise, so no generated byte changes.
	a.cnt = a.dt.fill(s, g.x, a.cnt)
	t := &a.dt
	g.dt = t
	vss := g.x.perStage / g.x.n
	microInv := false
	if mi, ok := opt.Est.(MicroInvariant); ok {
		microInv = mi.MicroInvariantCosts()
	}
	// Only the micro-0 block of each stage is decoded: the micro-m op is
	// its micro-0 twin with Micro = m, m·vss ids on, and so is its
	// dependency count (the DepTable's shift-copy rule).
	for k := 0; k < g.x.p; k++ {
		base := k * g.x.perStage
		for rel := 0; rel < vss; rel++ {
			_, op := g.x.opAt(int32(base + rel))
			deg := int(t.Off[base+rel+1] - t.Off[base+rel])
			for m := 0; m < g.x.n; m++ {
				id := base + m*vss + rel
				op.Micro = m
				n := &g.nodes[id]
				n.op = op
				if microInv && m > 0 {
					n.dur = g.nodes[base+rel].dur
				} else {
					n.dur = opt.Est.OpTime(k, op)
				}
				n.remaining = deg
				n.ready = 0
				n.scheduled = false
				g.finish[id] = 0
			}
		}
	}
	// Seed ready lists.
	for id := range g.nodes {
		if g.nodes[id].remaining == 0 {
			g.markReady(int32(id), g.x.stage(int32(id)))
		}
	}
}

func (g *generator) markReady(id int32, stage int) {
	st := &g.stages[stage]
	st.dirty = true
	switch g.nodes[id].op.Kind {
	case F:
		st.readyF = append(st.readyF, id)
	case B, BAct:
		st.readyB = append(st.readyB, id)
	default:
		// The family's pieces wake together in id order; the first
		// one queues the family.
		if int(id)%g.x.slots == 2 {
			g.insertW(st, id)
		}
	}
}

// insertW keeps readyW[wHead:] sorted by id, which within a stage is
// (micro, chunk, slice, piece) priority order: ids enumerate micro, chunk
// and slice, then the family slot, and a WPiece's slot follows its piece.
func (g *generator) insertW(st *genStage, id int32) {
	q := st.readyW
	lo, hi := st.wHead, len(q)
	for lo < hi {
		mid := (lo + hi) / 2
		if q[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = id
	st.readyW = q
}

func (g *generator) cap(stage int) int {
	c := math.MaxInt
	if g.opt.InFlightCap != nil {
		c = g.opt.InFlightCap(stage)
	}
	if min := g.s.V * g.s.S; c < min {
		c = min
	}
	return c
}

func (g *generator) wCap(stage int) int {
	if g.opt.WDeferCap == nil {
		return math.MaxInt
	}
	c := g.opt.WDeferCap(stage)
	if c < 0 {
		return math.MaxInt
	}
	return c
}

// bPriority returns a sort key (smaller = preferred) among ready backwards.
func (g *generator) bPriority(stage int, op Op) [4]int {
	gl := g.s.Place.Global(stage, op.Chunk)
	if g.opt.Reschedule {
		// Fig 6: prefer the backward with the most descendants —
		// (slice+1)·(globalChunk+1)−1 backwards transitively depend
		// on it.
		desc := (op.Slice + 1) * (gl + 1)
		return [4]int{-desc, op.Micro, 0, 0}
	}
	return [4]int{op.Micro, -gl, -op.Slice, 0}
}

func less4(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

type candidate struct {
	id    int32
	start float64
	kind  Kind
	ok    bool
}

const timeEps = 1e-9

// chooseF picks the best eligible forward for a stage.
//
// Eligibility keeps the cap from starving the critical chain: a backward of
// micro m runs only after ALL of m's forwards ran on this stage (each later
// chunk transitively revisits the stage), so a forward of a younger micro is
// admitted only if headroom remains for the oldest live micro's unscheduled
// forwards. This matches the hand-written Megatron/MEPipe orders; the rare
// shapes it cannot protect (deep virtual pipelines under aggressive memory
// knobs, where the oldest micro changes while younger ones hold capacity)
// are handled by the stall-recovery path in run.
func (g *generator) chooseF(k int) candidate {
	st := &g.stages[k]
	limit := g.cap(k)
	reserve := 0
	if st.oldest < g.s.N {
		reserve = st.unschedF[st.oldest]
	}
	best := candidate{}
	for _, id := range st.readyF {
		op := g.nodes[id].op
		need := st.inflight
		if op.Micro != st.oldest {
			need += reserve
		}
		if need >= limit {
			continue
		}
		// Ties go to the smaller id: all forwards of a stage share the
		// family slot 0, so id order is (micro, chunk, slice) order.
		start := max(st.free, g.nodes[id].ready)
		if !best.ok || start < best.start-timeEps ||
			(start < best.start+timeEps && id < best.id) {
			best = candidate{id: id, start: start, kind: F, ok: true}
		}
	}
	return best
}

func (g *generator) chooseB(k int) candidate {
	st := &g.stages[k]
	best := candidate{}
	for _, id := range st.readyB {
		op := g.nodes[id].op
		start := max(st.free, g.nodes[id].ready)
		if !best.ok || start < best.start-timeEps ||
			(start < best.start+timeEps && less4(g.bPriority(k, op), g.bPriority(k, g.nodes[best.id].op))) {
			best = candidate{id: id, start: start, kind: op.Kind, ok: true}
		}
	}
	return best
}

func (g *generator) chooseW(k int) candidate {
	st := &g.stages[k]
	if st.wHead >= len(st.readyW) {
		return candidate{}
	}
	id := st.readyW[st.wHead]
	op := g.nodes[id].op
	start := max(st.free, g.nodes[id].ready)
	return candidate{id: id, start: start, kind: op.Kind, ok: true}
}

func (g *generator) run() error {
	for k := range g.stages {
		g.stages[k].dirty = true
	}
	for g.done < g.total {
		bestStage := -1
		var best candidate
		for k := 0; k < g.s.P; k++ {
			st := &g.stages[k]
			if st.pending == 0 {
				continue
			}
			if st.dirty {
				st.cached = g.pick(k)
				st.dirty = false
			}
			c := st.cached
			if !c.ok {
				continue
			}
			if bestStage < 0 || c.start < best.start-timeEps {
				bestStage, best = k, c
			}
		}
		if bestStage < 0 {
			// Global stall: every stage is either empty, at its cap,
			// or waiting on another stage. Force the critical chain
			// through — run a ready forward of some stage's oldest
			// live micro-batch even though the stage is at its cap.
			// This momentarily exceeds the memory knob but is the
			// only way the oldest micro's backward (which frees the
			// capacity) can ever become runnable. It triggers only
			// for deep virtual pipelines under aggressive memory
			// limits, never for the paper's configurations.
			bestStage, best = g.forceProgress()
			if bestStage < 0 {
				return fmt.Errorf("sched: generate %s: deadlocked with %d/%d ops scheduled: %w\n%s", g.s, g.done, g.total, errs.ErrUncertified, g.dumpStall())
			}
		}
		g.commit(bestStage, best)
	}
	return nil
}

// forceProgress picks a cap-exempt forward for stall recovery: the ready
// forward of a stage's oldest live micro with the earliest possible start
// (preferring, among ties, the oldest micro globally).
func (g *generator) forceProgress() (int, candidate) {
	bestStage := -1
	var best candidate
	for k := 0; k < g.s.P; k++ {
		st := &g.stages[k]
		for _, id := range st.readyF {
			op := g.nodes[id].op
			if op.Micro != st.oldest {
				continue
			}
			start := max(st.free, g.nodes[id].ready)
			c := candidate{id: id, start: start, kind: F, ok: true}
			if bestStage < 0 || c.start < best.start-timeEps ||
				(c.start < best.start+timeEps && op.Micro < g.nodes[best.id].op.Micro) {
				bestStage, best = k, c
			}
		}
	}
	return bestStage, best
}

func (g *generator) dumpStall() string {
	out := ""
	for k := range g.stages {
		st := &g.stages[k]
		out += fmt.Sprintf("stage %d: pending=%d inflight=%d cap=%d oldest=m%d readyF=[", k, st.pending, st.inflight, g.cap(k), st.oldest)
		for _, id := range st.readyF {
			out += g.nodes[id].op.String() + " "
		}
		out += "] readyB=["
		for _, id := range st.readyB {
			out += g.nodes[id].op.String() + " "
		}
		out += fmt.Sprintf("] unschedF(oldest)=%d\n", st.unschedF[min(st.oldest, g.s.N-1)])
	}
	return out
}

// pick selects the next op for stage k per the policy.
func (g *generator) pick(k int) candidate {
	st := &g.stages[k]
	// Forced weight gradients: too many deferred.
	if g.s.SplitBW && st.deferred >= g.wCap(k) {
		if c := g.chooseW(k); c.ok {
			return c
		}
	}
	cf := g.chooseF(k)
	cb := g.chooseB(k)
	var main candidate
	switch {
	case cf.ok && cb.ok:
		if cf.start <= cb.start+timeEps {
			main = cf
		} else {
			main = cb
		}
	case cf.ok:
		main = cf
	case cb.ok:
		main = cb
	}
	if !g.s.SplitBW {
		return main
	}
	cw := g.chooseW(k)
	if !cw.ok {
		return main
	}
	if !main.ok {
		return cw
	}
	// Gap filling (§5 / zero-bubble): run a weight-gradient op only when
	// it completes before the main candidate could start anyway.
	if cw.start+g.nodes[cw.id].dur <= main.start+timeEps {
		return cw
	}
	return main
}

func (g *generator) commit(k int, c candidate) {
	st := &g.stages[k]
	st.dirty = true
	n := &g.nodes[c.id]
	n.scheduled = true
	fin := c.start + n.dur
	g.finish[c.id] = fin
	st.free = fin
	st.order = append(st.order, n.op)
	st.pending--
	g.done++
	switch n.op.Kind {
	case F:
		st.inflight++
		st.unschedF[n.op.Micro]--
		st.readyF = removeID(st.readyF, c.id)
	case B, BAct:
		st.inflight--
		st.unschedB[n.op.Micro]--
		if g.s.SplitBW {
			if g.s.WPieces > 0 {
				st.deferred += g.s.WPieces
			} else {
				st.deferred++
			}
		}
		if n.op.Micro == st.oldest && st.unschedB[n.op.Micro] == 0 {
			for st.oldest < g.s.N && st.unschedB[st.oldest] == 0 {
				st.oldest++
			}
		}
		st.readyB = removeID(st.readyB, c.id)
	case W, WPiece:
		st.deferred--
		// chooseW only ever proposes the head.
		if st.wHead >= len(st.readyW) || st.readyW[st.wHead] != c.id {
			panic("sched: generator committed a non-head weight-gradient op")
		}
		if next := c.id + 1; int(next)%g.x.slots != 0 {
			st.readyW[st.wHead] = next // the family's next piece
			break
		}
		st.wHead++
		if st.wHead == len(st.readyW) {
			st.readyW = st.readyW[:0]
			st.wHead = 0
		}
	}
	// Wake dependents.
	for e := g.dt.OutOff[c.id]; e < g.dt.OutOff[c.id+1]; e++ {
		dep := g.dt.OutID[e]
		d := &g.nodes[dep]
		ds := g.x.stage(dep)
		t := fin
		if ds != k {
			t += g.opt.Est.CommTime(k, ds, n.op)
		}
		if t > d.ready {
			d.ready = t
		}
		d.remaining--
		if d.remaining == 0 {
			g.markReady(dep, ds)
		}
	}
}

func removeID(s []int32, id int32) []int32 {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
