package sim

import (
	"fmt"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// Session is a reusable fast-evaluation context over one schedule shape: it
// pins the cost model, budgets, and op identities once, then evaluates any
// per-stage reorder of the bound schedule by one dense sweep: Kahn's sort
// of the whole order, which owns the deadlock verdict, then, in static
// mode, one solve of every op in that order. The result is guaranteed
// bitwise-identical, traced events included, to the map-based reference
// runner in oracle_test.go on the same Options — the differential fuzzer
// in fuzz_test.go holds that gate closed. Run and RunContext are one
// pooled-session evaluation; there is no other engine. Incremental
// evaluation belongs to the move overlays (move.go): a caller that knows
// its move — the annealer — evaluates it as an Overlay on the solved order
// without writing it, and commits an accepted one from the overlay that
// evaluated it.
//
// A DynamicW session keeps the same topological order — its sort is the
// acyclicity proof of every order it is handed — but solves no static
// start/finish times: the §5 engine replays the order against its own
// clock and never reads them.
//
// A session numbers ops by their sched.OpIndex ids and shares the bound
// schedule's sched.DepTable rather than copying it, so it binds only a
// complete schedule: every op of the shape, once. Its bind and first
// sweep are the silent producer of the structural verdict (verify.Certify
// names counterexamples): the bind loads the table through
// sched.Program.Load, as the certifier does, and rejects a table that is
// not its shape's op universe or depends on an op outside it
// (errs.ErrIncompatible); the sweep, a deadlocking order (ErrUncertified).
//
// A Session is not safe for concurrent use. All slices inside the
// returned Result are owned by the session and are overwritten by the next
// Eval — callers that retain results across evaluations must copy them
// first.
type Session struct {
	opt  Options
	base *sched.Schedule

	// shape, pinned at bind time
	P, V, S, N int
	splitBW    bool
	wPieces    int
	dynamicW   bool
	hasBudget  bool
	budget     []int64
	hasTail    bool
	tailV      []float64

	// op identity tables. A session id is the op's sched.OpIndex id, and
	// a session binds only the complete op universe, so every id of the
	// shape is present; moves permute positions but never identities, so
	// the dependency graph, durations, and memory charges below are
	// computed once. No hashing anywhere on the bind or Eval paths.
	n     int
	x     sched.OpIndex // dense (stage, op) numbering of the bound shape
	nfam  int
	prog  sched.Program // the current order, loaded onto the universe
	opsl  []sched.Op    // id -> op
	stg   []int32       // id -> stage
	pos   []int32       // id -> current position in its stage list: prog.Pos
	next  []int32       // id -> list successor, -1 at a stage's end: prog.Next
	order [][]int32     // stage -> position -> id: views of prog.IDs
	famID []int32       // id -> family slot
	dur   []float64     // id -> op duration
	memB  []int64       // id -> bytes allocated at execution (F: act, BAct: grad)

	// dependency edges (identity-based, immutable across moves). The
	// offsets and ids alias the bound schedule's sched.DepTable — never
	// written through, and dropped before a session returns to its pool.
	dt      *sched.DepTable
	depOff  []int32 // id -> [depOff[id], depOff[id+1]) into depID/depComm
	depID   []int32
	depComm []float64 // communication delay, 0 for same-stage edges
	sucOff  []int32   // reverse edges: id -> dependents
	sucID   []int32

	// solved static state: start/finish per op (static mode only), and
	// the topological order they were solved in. An overlay's Commit
	// keeps finish and topo current but not start (see Overlay.Commit).
	start  []float64
	finish []float64
	topo   sched.Topo
	indeg  []int32 // Kahn scratch

	// per-stage aggregates of the static path, which move overlays read
	// for the stages a move leaves alone
	stCompute []float64
	stPeak    []int64
	stOOMPos  []int32 // first over-budget alloc position, -1 if none

	// family scratch shared by the static memory scan and the dynamic
	// engine (family ids are stage-disjoint, so per-use epochs never mix)
	fam famMem

	// placement fingerprint: moves never change placement, and the dep
	// rules only consult Place through Global/Host, so semantic equality
	// of those maps is full dependency-equivalence
	placeGlobal []int32 // k*V+j -> global chunk
	placeHost   []int32 // g -> stage

	res Result
	eng *engState

	valid bool   // topo ranks the current order; in static mode finish solves it
	gen   uint64 // bumped by every write to the bound order; overlays check it
}

// NewSession binds a fast-evaluation session to opt. opt.Sched becomes
// the base order; subsequent Eval calls accept any per-stage permutation
// of the same ops, and emits into opt.Trace when it is set. A nil
// schedule, a budget of the wrong length, or a table the bind rejects
// (see Session) wraps errs.ErrIncompatible; a deadlocking order fails the
// first Eval instead, before any event, wrapping errs.ErrUncertified.
//
//mepipe:deterministic
func NewSession(opt Options) (*Session, error) {
	se := &Session{}
	if err := se.init(opt); err != nil {
		return nil, err
	}
	return se, nil
}

// Bind (re)binds the session to opt, reusing any capacity from a previous
// binding — the amortization the strategy sweep's per-worker sessions rely
// on. A zero Session is ready to Bind.
//
//mepipe:deterministic
func (se *Session) Bind(opt Options) error { return se.init(opt) }

// init (re)binds the session, reusing any capacity from a previous binding.
//
//mepipe:coldalloc binding sizes every table once; Eval reuses the capacity, so the steady state never allocates
func (se *Session) init(opt Options) error {
	s := opt.Sched
	if s == nil {
		return fmt.Errorf("sim: nil schedule: %w", errs.ErrIncompatible)
	}
	if opt.DynamicW && !s.SplitBW {
		return fmt.Errorf("sim: dynamic weight-gradient mode requires a split-backward schedule: %w", errs.ErrIncompatible)
	}
	if opt.ActBudget != nil && len(opt.ActBudget) != s.P {
		return fmt.Errorf("sim: ActBudget has %d entries, want %d: %w", len(opt.ActBudget), s.P, errs.ErrIncompatible)
	}
	if s.Place == nil {
		return fmt.Errorf("sim: schedule has no placement: %w", errs.ErrIncompatible)
	}
	if s.P <= 0 || s.V <= 0 || s.S <= 0 || s.N <= 0 {
		return fmt.Errorf("sim: session: %s has non-positive shape: %w", s, errs.ErrIncompatible)
	}
	se.P, se.V, se.S, se.N = s.P, s.V, s.S, s.N
	se.splitBW, se.wPieces = s.SplitBW, s.WPieces
	se.dynamicW = opt.DynamicW
	se.tailV = sgrow(se.tailV, s.P)
	se.setOptions(opt)

	// Ids are the universe ids, so the session needs every op of the
	// shape, once: exactly what Program.Load proves.
	se.x = sched.IndexOf(s)
	n := se.x.Total()
	f := sched.Fault{Kind: sched.Short} // a wrong stage-list count reads as short
	if len(s.Stages) == s.P {
		f = se.prog.Load(s)
	}
	switch f.Kind {
	case sched.Misfit:
		return fmt.Errorf("sim: session: op %v@stage%d is outside the schedule shape: %w", f.Op, f.Stage, errs.ErrIncompatible)
	case sched.Duplicate:
		return fmt.Errorf("sim: session: duplicate op %v@stage%d: %w", f.Op, f.Stage, errs.ErrIncompatible)
	case sched.Short:
		ops := 0
		for _, st := range s.Stages {
			ops += len(st)
		}
		return fmt.Errorf("sim: session: %s has %d ops in %d stage lists, want the complete universe of %d in %d: %w", s, ops, len(s.Stages), n, s.P, errs.ErrIncompatible)
	}
	se.n = n
	se.opsl = sgrow(se.opsl, n)
	se.stg = sgrow(se.stg, n)
	se.famID = sgrow(se.famID, n)
	se.dur = sgrow(se.dur, n)
	se.memB = sgrow(se.memB, n)
	se.order = sgrow(se.order, s.P)
	se.view()
	for k, ops := range s.Stages {
		for p, id := range se.order[k] {
			se.opsl[id] = ops[p]
			se.stg[id] = int32(k)
			se.famID[id] = se.x.FamilyOf(id)
		}
	}
	se.nfam = se.x.Families()

	// Dependency edges come straight from the schedule's cached dense
	// dependency table — the same rows the generator and the certifier
	// consumed — so binding never re-derives or copies a Dep.
	dt := s.DepTable()
	if dt.Neg > 0 {
		k, op, d, _ := s.AbsentDep()
		return fmt.Errorf("sim: session: op %v@stage%d depends on absent op %v@stage%d: %w", op, k, d.Op, d.Stage, errs.ErrIncompatible)
	}
	se.dt = dt
	se.depOff, se.depID = dt.Off, dt.ID
	se.sucOff, se.sucID = dt.OutOff, dt.OutID
	se.depComm = sgrow(se.depComm, len(dt.ID))
	se.cost(opt.Costs)

	se.placeGlobal = sgrow(se.placeGlobal, se.P*se.V)
	for k := 0; k < se.P; k++ {
		for j := 0; j < se.V; j++ {
			se.placeGlobal[k*se.V+j] = int32(s.Place.Global(k, j))
		}
	}
	se.placeHost = sgrow(se.placeHost, 2*se.P*se.V)
	for g := 0; g < se.P*se.V; g++ {
		hk, hl := s.Place.Host(g)
		se.placeHost[2*g] = int32(hk)
		se.placeHost[2*g+1] = int32(hl)
	}

	se.start = sgrow(se.start, n)
	se.finish = sgrow(se.finish, n)
	se.indeg = sgrow(se.indeg, n)
	se.fam.grow(se.nfam)
	se.stCompute = sgrow(se.stCompute, se.P)
	se.stPeak = sgrow(se.stPeak, se.P)
	se.stOOMPos = sgrow(se.stOOMPos, se.P)
	se.res.Stages = sgrow(se.res.Stages, se.P)
	// Bump the family epoch past any stamp a previous binding left in
	// reused arrays; new array regions are zero, which it also exceeds.
	se.fam.epoch++
	se.valid = false
	se.gen++
	return nil
}

// cost fills the cost-dependent tables — durations, memory charges (F
// retains activations, BAct gradients) and communication delays (0 for
// same-stage edges keeps the max loop branch-free without perturbing
// bits: finish times are never negative zero). Micro-invariant models
// (see sched.MicroInvariant) are queried only for the micro-0 twin of
// each op: the micro-m op is its twin shifted by m·V·S·slots ids, its
// dependency row is the twin's row shifted the same way in identical
// order, and the model vouches both answer bitwise alike, so the copies
// are exact.
func (se *Session) cost(c Costs) {
	microInv := se.microInvariant(c)
	for id := 0; id < se.n; id++ {
		op := se.opsl[id]
		if microInv && op.Micro > 0 {
			continue
		}
		k := int(se.stg[id])
		se.dur[id] = c.OpTime(k, op)
		switch sched.RetentionOf(op.Kind, false) {
		case sched.RetainAct:
			se.memB[id] = c.ActBytes(k, op)
		case sched.RetainGrad:
			se.memB[id] = c.GradBytes(k, op)
		default:
			se.memB[id] = 0
		}
		for e := se.depOff[id]; e < se.depOff[id+1]; e++ {
			se.depComm[e] = 0
			if j := se.depID[e]; int(se.stg[j]) != k {
				se.depComm[e] = c.CommTime(int(se.stg[j]), k, se.opsl[j])
			}
		}
	}
	if !microInv {
		return
	}
	vss := int32(se.x.PerStage() / se.N)
	for i := int32(0); i < int32(se.n); i++ {
		m := int32(se.opsl[i].Micro)
		if m == 0 {
			continue
		}
		tw := i - m*vss
		se.dur[i] = se.dur[tw]
		se.memB[i] = se.memB[tw]
		copy(se.depComm[se.depOff[i]:se.depOff[i+1]], se.depComm[se.depOff[tw]:se.depOff[tw+1]])
	}
}

// setOptions pins the cost-independent run options: the bound schedule,
// budgets and tail times.
func (se *Session) setOptions(opt Options) {
	se.opt = opt
	se.base = opt.Sched
	se.hasBudget = opt.ActBudget != nil
	se.budget = append(se.budget[:0], opt.ActBudget...)
	se.hasTail = opt.TailTime != nil
	for k := 0; k < se.P; k++ {
		se.tailV[k] = 0
		if se.hasTail {
			se.tailV[k] = opt.TailTime(k)
		}
	}
}

// release drops the session's references to the bound schedule — the
// aliased dependency table above all — so a pooled session never pins a
// schedule's tables. The next Bind restores them.
func (se *Session) release() {
	se.opt, se.base, se.dt = Options{}, nil, nil
	se.depOff, se.depID, se.sucOff, se.sucID = nil, nil, nil, nil
}

// microInvariant reports whether the cost model promises identical
// answers for ops differing only in Micro (see sched.MicroInvariant),
// which lets init query the micro-0 twin once and copy.
func (se *Session) microInvariant(c Costs) bool {
	mi, ok := c.(sched.MicroInvariant)
	return ok && mi.MicroInvariantCosts()
}

// Eval simulates s, which must be a per-stage permutation of the bound
// schedule's ops (shape and placement included — anything else returns a
// wrapped errs.ErrIncompatible, telling callers to rebuild the session).
// Orders that deadlock return a wrapped errs.ErrUncertified.
// sched.Program.Load proves s a per-stage
// bijection onto the bound op set, whose shape compat has checked, and
// the dense sweep evaluates it.
//
// The returned Result is owned by the session and is overwritten by the
// next Eval.
//
//mepipe:deterministic
func (se *Session) Eval(s *sched.Schedule) (*Result, error) {
	if err := se.compat(s); err != nil {
		return nil, err
	}
	// Load refills the bound tables in place, since the bind sized them,
	// so the order views stay valid.
	se.valid = false
	se.gen++
	if f := se.prog.Load(s); f.Kind != sched.NoFault {
		return nil, fmt.Errorf("sim: session: stage %d op list is not a permutation of the bound schedule: %w", f.Stage, errs.ErrIncompatible)
	}
	return se.eval()
}

// eval evaluates the order the tables hold: all of Eval after the load,
// and all of a first evaluation right after a bind, which has loaded the
// bound schedule's own order.
func (se *Session) eval() (*Result, error) {
	if err := se.sweep(); err != nil {
		return nil, err
	}
	if se.dynamicW {
		if err := se.runEngine(); err != nil {
			return nil, err
		}
		se.assembleDynamic()
		return &se.res, nil
	}
	se.memScan()
	se.assembleStatic()
	return &se.res, nil
}

// compat verifies s shares the bound schedule's shape, per-stage op counts,
// and placement maps. It never mutates session state.
func (se *Session) compat(s *sched.Schedule) error {
	if s == nil {
		return fmt.Errorf("sim: nil schedule: %w", errs.ErrIncompatible)
	}
	if s.P != se.P || s.V != se.V || s.S != se.S || s.N != se.N ||
		s.SplitBW != se.splitBW || s.WPieces != se.wPieces || len(s.Stages) != se.P {
		return fmt.Errorf("sim: session bound to %s, got %s: %w", se.base, s, errs.ErrIncompatible)
	}
	for k := range s.Stages {
		if len(s.Stages[k]) != len(se.order[k]) {
			return fmt.Errorf("sim: session: stage %d has %d ops, bound schedule has %d: %w", k, len(s.Stages[k]), len(se.order[k]), errs.ErrIncompatible)
		}
	}
	if s.Place == nil {
		return fmt.Errorf("sim: schedule has no placement: %w", errs.ErrIncompatible)
	}
	for k := 0; k < se.P; k++ {
		for j := 0; j < se.V; j++ {
			if int32(s.Place.Global(k, j)) != se.placeGlobal[k*se.V+j] {
				return fmt.Errorf("sim: session: placement differs at stage %d chunk %d: %w", k, j, errs.ErrIncompatible)
			}
		}
	}
	for g := 0; g < se.P*se.V; g++ {
		hk, hl := s.Place.Host(g)
		if int32(hk) != se.placeHost[2*g] || int32(hl) != se.placeHost[2*g+1] {
			return fmt.Errorf("sim: session: placement host differs for global chunk %d: %w", g, errs.ErrIncompatible)
		}
	}
	return nil
}

// link sets the list successors of the ops at positions lo through hi of a
// stage's order.
func (se *Session) link(ord []int32, lo, hi int) {
	for p := lo; p <= hi; p++ {
		se.next[ord[p]] = -1
		if p+1 < len(ord) {
			se.next[ord[p]] = ord[p+1]
		}
	}
}

// view points the order tables at the loaded program: stage k's order is
// its run of prog.IDs, every stage holding the universe's per-stage ops.
func (se *Session) view() {
	per := se.x.PerStage()
	for k := range se.order {
		se.order[k] = se.prog.IDs[k*per : (k+1)*per]
	}
	se.pos, se.next = se.prog.Pos, se.prog.Next
}

// recompute solves one op's recurrence from its current predecessors:
//
//	start  = max(finish[list predecessor], max over deps(finish + comm))
//	finish = start + dur
//
// The float operations mirror the reference runner's readyTime/execute
// (oracle_test.go) exactly (same comparison order, same math.Max), which
// is what makes session results bitwise-identical; Overlay.recompute
// repeats them under a move.
func (se *Session) recompute(id int32) {
	k := int(se.stg[id])
	p := int(se.pos[id])
	prevFin := 0.0
	if p > 0 {
		prevFin = se.finish[se.order[k][p-1]]
	}
	t := 0.0
	for e := se.depOff[id]; e < se.depOff[id+1]; e++ {
		f := se.finish[se.depID[e]] + se.depComm[e]
		if f > t {
			t = f
		}
	}
	st := max(prevFin, t)
	se.start[id] = st
	se.finish[id] = st + se.dur[id]
}

// sweep ranks every op by Kahn's algorithm over program-order and
// dependency edges, which is the order's deadlock verdict, and, in static
// mode, solves them in that order.
func (se *Session) sweep() error {
	if ranked := se.topo.Sort(se.dt, se.next, se.indeg); ranked != se.n {
		se.valid = false
		return fmt.Errorf("sim: session: %d of %d ops are on a program-order/dependency cycle (the order deadlocks): %w", se.n-ranked, se.n, errs.ErrUncertified)
	}
	if !se.dynamicW {
		for _, id := range se.topo.Order {
			se.recompute(id)
		}
	}
	se.valid = true
	return nil
}

// famMem is per-family retention scratch for replaying a stage's list
// through the retention rule: each family's retained bytes and weight-
// gradient pieces run so far, valid while its stamp equals epoch. Bumping
// epoch clears every family at once.
type famMem struct {
	acc   []int64
	cnt   []int32
	ep    []uint32
	epoch uint32
}

// grow sizes the scratch for n families, keeping capacity.
func (m *famMem) grow(n int) {
	m.acc = sgrow(m.acc, n)
	m.cnt = sgrow(m.cnt, n)
	m.ep = sgrow(m.ep, n)
}

// step steps one op of family f and kind through the retention rule
// (sched.PieceStep), charging b bytes when it retains, and returns the
// step with the bytes it retains or releases.
func (m *famMem) step(f int32, kind sched.Kind, b int64, wPieces int) (sched.Retention, int64) {
	if m.ep[f] != m.epoch {
		m.ep[f] = m.epoch
		m.acc[f] = 0
		m.cnt[f] = 0
	}
	r := sched.PieceStep(kind, &m.cnt[f], wPieces)
	switch r {
	case sched.RetainAct, sched.RetainGrad:
		m.acc[f] += b
		return r, b
	case sched.Release:
		b := m.acc[f]
		m.acc[f] = 0
		return r, b
	}
	return r, 0
}

// memStep steps op id through the retention rule on its family's retained
// bytes: the memory accounting the static scan (traced or not) and the
// dynamic engine share.
func (se *Session) memStep(id int32) (sched.Retention, int64) {
	return se.fam.step(se.famID[id], se.opsl[id].Kind, se.memB[id], se.wPieces)
}

// memScan replays each stage's ops in list order through memStep —
// memory in static mode depends only on the per-stage order, never on
// times — keeping compute time, peak bytes, and the first over-budget
// position for assembly and for move overlays. A traced evaluation emits
// its events as it goes: stage by stage in list order, which is each
// stage's execution order.
func (se *Session) memScan() {
	traced := se.opt.Trace != nil
	for k := 0; k < se.P; k++ {
		se.fam.epoch++
		compute, free := 0.0, 0.0
		var live, peak int64
		oomPos := int32(-1)
		for p, id := range se.order[k] {
			compute += se.dur[id]
			end := se.finish[id]
			if traced {
				se.traceWait(k, id, se.start[id], free, se.finish)
				se.emitOp(k, id, se.start[id], end, "")
				free = end
			}
			switch r, b := se.memStep(id); r {
			case sched.RetainAct, sched.RetainGrad:
				live += b
				peak = max(peak, live)
				if se.hasBudget && live > se.budget[k] && oomPos < 0 {
					oomPos = int32(p)
				}
				if traced {
					se.emitMem(obs.EvAlloc, k, id, b, live, end)
				}
			case sched.Release:
				live -= b
				if traced {
					se.emitMem(obs.EvFree, k, id, b, live, end)
				}
			}
		}
		se.stCompute[k] = compute
		se.stPeak[k] = peak
		se.stOOMPos[k] = oomPos
	}
}

// assembleStatic writes the Result, and emits the tail events, exactly as
// the reference runner's result() does (oracle_test.go), in the same
// float-operation order. The runner flags OOM at the first over-budget
// allocation in global execution order; with static execution sorted by
// (start, stage), that is the stage minimizing (start of its first
// over-budget op, stage index).
func (se *Session) assembleStatic() {
	res := &se.res
	for k := 0; k < se.P; k++ {
		ord := se.order[k]
		fre := 0.0
		if len(ord) > 0 {
			fre = se.finish[ord[len(ord)-1]]
		}
		fin := fre
		if se.hasTail {
			fin += se.tailV[k]
			if se.opt.Trace != nil {
				se.emitTail(k, fre, fin)
			}
		}
		res.Stages[k] = StageResult{ComputeTime: se.stCompute[k], Finish: fin, PeakAct: se.stPeak[k]}
	}
	se.totals(res)
	res.OOM = false
	res.OOMStage = 0
	if se.hasBudget {
		at := -1
		bestStart := 0.0
		for k := 0; k < se.P; k++ {
			p := se.stOOMPos[k]
			if p < 0 {
				continue
			}
			s0 := se.start[se.order[k][p]]
			if at < 0 || s0 < bestStart {
				at = k
				bestStart = s0
			}
		}
		if at >= 0 {
			res.OOM = true
			res.OOMStage = at
		}
	}
}

// totals derives a static Result's iteration time, peak and bubble ratio
// from its per-stage rows, in the reference runner's float-operation
// order.
func (se *Session) totals(res *Result) {
	res.PeakAct = 0
	end := 0.0
	for _, st := range res.Stages {
		if st.Finish > end {
			end = st.Finish
		}
		if st.PeakAct > res.PeakAct {
			res.PeakAct = st.PeakAct
		}
	}
	res.IterTime = end
	busy := 0.0
	for k, st := range res.Stages {
		busy += st.ComputeTime
		if se.hasTail {
			busy += se.tailV[k]
		}
	}
	res.BubbleRatio = 0
	if end > 0 {
		res.BubbleRatio = 1 - busy/(float64(se.P)*end)
	}
}

// sgrow returns s resized to n, reusing capacity and preserving any prefix
// (nested slices keep their buffers across rebinds).
func sgrow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n)
	copy(out, s)
	return out
}
