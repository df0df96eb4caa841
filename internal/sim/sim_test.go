package sim

import (
	"math"
	"testing"
	"testing/quick"

	"mepipe/internal/analytic"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/obs"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
)

func mustRun(t *testing.T, s *sched.Schedule, err error, opt Options) *Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	opt.Sched = s
	if opt.Costs == nil {
		opt.Costs = Unit()
	}
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runTraced runs opt with a recorder attached and returns the result and
// the recording: the per-op timeline.
func runTraced(t *testing.T, opt Options) (*Result, *obs.Trace) {
	t.Helper()
	rec := obs.NewRecorder()
	opt.Trace = rec
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Trace()
}

// TestSimMatchesAnalyticExact cross-validates the simulator against the
// Table 3 closed forms for the schedulers whose generated orders achieve
// them exactly (zero communication, uniform costs).
func TestSimMatchesAnalyticExact(t *testing.T) {
	type tc struct {
		name   string
		meth   analytic.Method
		params analytic.Params
		build  func() (*sched.Schedule, error)
		exactB bool
		exactM bool
	}
	cases := []tc{}
	for _, n := range []int{4, 8, 12} {
		for _, p := range []int{2, 4, 8} {
			p, n := p, n
			cases = append(cases,
				tc{"gpipe", analytic.GPipe, analytic.Params{P: p, V: 1, S: 1, N: n},
					func() (*sched.Schedule, error) { return sched.GPipe(p, n, nil) }, true, true},
				tc{"dapple", analytic.DAPPLE, analytic.Params{P: p, V: 1, S: 1, N: n},
					func() (*sched.Schedule, error) { return sched.DAPPLE(p, n, nil) }, true, true},
				tc{"terapipe", analytic.TeraPipe, analytic.Params{P: p, V: 1, S: 4, N: n},
					func() (*sched.Schedule, error) { return sched.TeraPipe(p, 4, n, nil) }, true, true},
			)
			if n >= p {
				// Real interleaved VPP requires n to be a
				// multiple of p (Megatron asserts it); the
				// greedy order is exact only there.
				cases = append(cases, tc{"vpp", analytic.VPP, analytic.Params{P: p, V: 2, S: 1, N: n},
					func() (*sched.Schedule, error) { return sched.VPP(p, 2, n, nil) }, n%p == 0, n%p == 0})
			}
			cases = append(cases, tc{"svpp", analytic.SVPP, analytic.Params{P: p, V: 2, S: 2, N: n},
				func() (*sched.Schedule, error) {
					return sched.SVPP(sched.SVPPOptions{P: p, V: 2, S: 2, N: n, Reschedule: true})
				}, n >= p && p <= 4, true})
		}
	}
	for _, c := range cases {
		s, err := c.build()
		res := mustRun(t, s, err, Options{})
		wantB, err := analytic.BubbleRatio(c.meth, c.params)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.name, c.params, err)
		}
		// The analytic expressions are idealized lower bounds; the
		// generated orders achieve them exactly for the flat-pipeline
		// systems and stay within 3 points for deep interleaved shapes
		// (drain-phase chain latency the closed forms ignore).
		if res.BubbleRatio < wantB-1e-9 {
			t.Errorf("%s %+v: sim bubble %.6f below analytic lower bound %.6f", c.name, c.params, res.BubbleRatio, wantB)
		}
		slack := 0.0
		if !c.exactB {
			slack = 0.03
			if c.params.N < c.params.P {
				// The n < p regime leaves long structural stalls
				// the greedy order cannot compact perfectly.
				slack = 0.05
			}
		}
		if res.BubbleRatio > wantB+slack+1e-9 {
			t.Errorf("%s %+v: sim bubble %.6f exceeds analytic %.6f by more than %.2f", c.name, c.params, res.BubbleRatio, wantB, slack)
		}
		// Peak activation in units of slice-chunk families: analytic
		// value is in units of A = v·s·p families.
		wantM, err := analytic.ActivationMemory(c.meth, c.params)
		if err != nil {
			t.Fatal(err)
		}
		gotM := float64(res.PeakAct) / float64(c.params.V*c.params.S*c.params.P)
		if c.exactM && math.Abs(gotM-wantM) > 1e-9 {
			t.Errorf("%s %+v: sim peak %.6f A != analytic %.6f A", c.name, c.params, gotM, wantM)
		}
	}
}

// TestHanayoNearAnalytic: the wave schedule is greedy-generated over the V
// placement, so it tracks the idealized formula loosely; require it to stay
// within 8 points above the bound (the paper's evaluation uses Hanayo only
// through its analytic row in Table 3 / Fig 1).
func TestHanayoNearAnalytic(t *testing.T) {
	for _, n := range []int{8, 16} {
		s, err := sched.Hanayo(4, n, nil)
		res := mustRun(t, s, err, Options{})
		want, _ := analytic.BubbleRatio(analytic.Hanayo, analytic.Params{P: 4, V: 2, S: 1, N: n})
		if res.BubbleRatio < want-1e-9 {
			t.Errorf("n=%d: Hanayo sim bubble %.4f below analytic %.4f", n, res.BubbleRatio, want)
		}
		// The greedy wave order is structurally looser than the
		// hand-crafted Hanayo schedule (see sched.Hanayo docs); it is
		// used only for validation, never for the paper's evaluation
		// figures, which take Hanayo's analytic row.
		if res.BubbleRatio > want+0.12 {
			t.Errorf("n=%d: Hanayo sim bubble %.4f too far above analytic %.4f", n, res.BubbleRatio, want)
		}
	}
}

func TestZB1PBeatsDAPPLE(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		zb, err := sched.ZB1P(4, n, nil)
		zbRes := mustRun(t, zb, err, Options{})
		da, err := sched.DAPPLE(4, n, nil)
		daRes := mustRun(t, da, err, Options{})
		if zbRes.IterTime >= daRes.IterTime {
			t.Errorf("n=%d: ZB-1P %.1f not faster than DAPPLE %.1f", n, zbRes.IterTime, daRes.IterTime)
		}
	}
}

func TestSVPPVariantTradeoff(t *testing.T) {
	// Fig 5: shrinking f reduces peak memory and (weakly) increases the
	// makespan.
	prevPeak, prevTime := int64(1<<62), 0.0
	for _, f := range []int{8, 6, 4} {
		s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 2, F: f, Reschedule: true})
		res := mustRun(t, s, err, Options{})
		if res.PeakAct > prevPeak {
			t.Errorf("f=%d: peak %d exceeds larger variant %d", f, res.PeakAct, prevPeak)
		}
		if res.IterTime+1e-9 < prevTime {
			t.Errorf("f=%d: makespan %.1f improved while shrinking memory (%.1f)", f, res.IterTime, prevTime)
		}
		if res.PeakAct != int64(f) {
			t.Errorf("f=%d: peak %d families, want exactly f", f, res.PeakAct)
		}
		prevPeak, prevTime = res.PeakAct, res.IterTime
	}
}

func TestRescheduleNeverHurts(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		base, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: n})
		baseRes := mustRun(t, base, err, Options{})
		opt, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: n, Reschedule: true})
		optRes := mustRun(t, opt, err, Options{})
		if optRes.IterTime > baseRes.IterTime+1e-9 {
			t.Errorf("n=%d: rescheduling worsened makespan %.2f -> %.2f", n, baseRes.IterTime, optRes.IterTime)
		}
		if optRes.PeakAct > baseRes.PeakAct {
			t.Errorf("n=%d: rescheduling raised peak memory %d -> %d", n, baseRes.PeakAct, optRes.PeakAct)
		}
	}
}

// TestDynamicWFillsBubbles: §5's headline — draining weight-gradient GEMMs
// into stalls beats computing W immediately after each BAct (the Fig 11 vs
// Fig 12 comparison), and the gap-filling static placement matches the
// dynamic engine under accurate cost estimates.
func TestDynamicWFillsBubbles(t *testing.T) {
	costs := UniformCosts{
		Est: sched.UniformEst{F: 1, BAct: 1, W: 1, WPiece: 0.25},
		Act: 1, Grad: 1,
	}
	// Baseline: weight gradients forced right after their backward
	// (WDeferCap 0), as in "MEPipe w/o fine-grained weight gradients".
	prompt, err := sched.SVPP(sched.SVPPOptions{
		P: 4, V: 1, S: 2, N: 4, Split: true, Reschedule: true,
		Est:       costs.Est,
		WDeferCap: func(int) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	inline := mustRun(t, prompt, nil, Options{Costs: costs})
	// Dynamic engine on the same schedule re-places the W work freely.
	dynamic := mustRun(t, prompt, nil, Options{Costs: costs, DynamicW: true})
	if dynamic.IterTime >= inline.IterTime {
		t.Errorf("dynamic W %.2f not faster than prompt-W %.2f", dynamic.IterTime, inline.IterTime)
	}
	if dynamic.BubbleRatio >= inline.BubbleRatio {
		t.Errorf("dynamic W bubble %.3f not lower than prompt-W %.3f", dynamic.BubbleRatio, inline.BubbleRatio)
	}
	// Fine-grained pieces placed by the generator's gap filler should be
	// at least as good as whole-op dynamic placement.
	pieces, err := sched.MEPipe(4, 1, 2, 4, 0, 4, costs.Est)
	if err != nil {
		t.Fatal(err)
	}
	static := mustRun(t, pieces, nil, Options{Costs: costs})
	if static.IterTime > dynamic.IterTime+1e-9 {
		t.Errorf("static fine-grained placement %.2f worse than dynamic whole-W %.2f", static.IterTime, dynamic.IterTime)
	}
}

// TestDynamicWMemoryCeiling: with a tight activation budget the dynamic
// engine drains weight gradients early, trading speed for fitting.
func TestDynamicWMemoryCeiling(t *testing.T) {
	costs := UniformCosts{
		Est: sched.UniformEst{F: 1, BAct: 1, W: 1, WPiece: 0.25},
		Act: 1, Grad: 1,
	}
	s, err := sched.MEPipe(4, 1, 2, 4, 0, 4, costs.Est)
	if err != nil {
		t.Fatal(err)
	}
	free := mustRun(t, s, nil, Options{Costs: costs, DynamicW: true})
	budget := make([]int64, 4)
	for i := range budget {
		budget[i] = free.PeakAct - 2
	}
	tight := mustRun(t, s, nil, Options{Costs: costs, DynamicW: true, ActBudget: budget})
	if tight.OOM {
		t.Fatalf("tight run OOMed at stage %d (peak %d, budget %d)", tight.OOMStage, tight.PeakAct, budget[0])
	}
	if tight.PeakAct > budget[0] {
		t.Errorf("peak %d exceeds budget %d", tight.PeakAct, budget[0])
	}
	if tight.IterTime < free.IterTime-1e-9 {
		t.Errorf("tight budget cannot be faster: %.2f vs %.2f", tight.IterTime, free.IterTime)
	}
	// An infeasible budget must be reported as OOM, not silently exceeded.
	for i := range budget {
		budget[i] = 2
	}
	infeasible := mustRun(t, s, nil, Options{Costs: costs, DynamicW: true, ActBudget: budget})
	if !infeasible.OOM {
		t.Error("expected OOM under an infeasible budget")
	}
}

func TestStaticOOMDetection(t *testing.T) {
	s, err := sched.DAPPLE(4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := []int64{3, 3, 3, 3} // DAPPLE stage 0 needs p = 4
	res := mustRun(t, s, nil, Options{ActBudget: budget})
	if !res.OOM {
		t.Error("expected OOM with budget below the DAPPLE peak")
	}
	if res.OOMStage != 0 {
		t.Errorf("OOM at stage %d, want 0 (first stage holds the most)", res.OOMStage)
	}
}

func TestMemoryNeverNegativeAndEndsAtZero(t *testing.T) {
	schedules := []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return sched.DAPPLE(4, 8, nil) },
		func() (*sched.Schedule, error) { return sched.ZBV(4, 8, nil) },
		func() (*sched.Schedule, error) { return sched.MEPipe(4, 2, 2, 4, 0, 3, nil) },
	}
	for _, build := range schedules {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, dyn := range []bool{false, true} {
			if dyn && !s.SplitBW {
				continue
			}
			opt := Options{Sched: s, Costs: UniformCosts{Est: sched.Unit(), Act: 3, Grad: 2}, DynamicW: dyn}
			res, tr := runTraced(t, opt)
			// Replay alloc/free from the op spans: live must never dip
			// below zero and must return to zero.
			for k := range res.Stages {
				live := int64(0)
				spans := tr.OpSpans(k)
				for _, sp := range spans {
					switch sp.Op.Kind {
					case sched.F:
						live += 3
					case sched.B:
						live -= 3
					case sched.BAct:
						live += 2
					case sched.W:
						live -= 5
					case sched.WPiece:
						if sp.Op.Piece == done(spans, sp.Op) {
							live -= 5
						}
					}
					if live < 0 {
						t.Fatalf("%s stage %d: live bytes went negative", s, k)
					}
				}
				if live != 0 {
					t.Errorf("%s stage %d (dyn=%v): %d bytes leaked", s, k, dyn, live)
				}
			}
		}
	}
}

// done returns the Piece index of the last-executed WPiece of op's family in
// spans order.
func done(spans []obs.Event, op sched.Op) int {
	last := -1
	for _, sp := range spans {
		if sp.Op.Kind == sched.WPiece && sp.Op.Micro == op.Micro && sp.Op.Slice == op.Slice && sp.Op.Chunk == op.Chunk {
			last = sp.Op.Piece
		}
	}
	return last
}

func TestTailTimeExtendsIteration(t *testing.T) {
	s, err := sched.DAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, s, nil, Options{})
	tail := mustRun(t, s, nil, Options{TailTime: func(int) float64 { return 5 }})
	if tail.IterTime != base.IterTime+5 {
		t.Errorf("tail time not applied: %.1f vs %.1f+5", tail.IterTime, base.IterTime)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("nil schedule accepted")
	}
	s, _ := sched.DAPPLE(2, 2, nil)
	if _, err := Run(Options{Sched: s, Costs: Unit(), DynamicW: true}); err == nil {
		t.Error("dynamic W accepted on fused schedule")
	}
	if _, err := Run(Options{Sched: s, Costs: Unit(), ActBudget: []int64{1}}); err == nil {
		t.Error("wrong-length budget accepted")
	}
}

// TestCausalityProperty: every op starts no earlier than all of its
// dependencies finish (plus communication), across a mix of schedules.
func TestCausalityProperty(t *testing.T) {
	est := sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.5, Comm: 0.25}
	builds := []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return sched.DAPPLE(4, 6, est) },
		func() (*sched.Schedule, error) { return sched.VPP(4, 2, 8, est) },
		func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 4, Est: est, Split: true, FineGrainedW: 2, Reschedule: true})
		},
	}
	for _, build := range builds {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		costs := UniformCosts{Est: est, Act: 1, Grad: 1}
		res, tr := runTraced(t, Options{Sched: s, Costs: costs})
		fin := map[opRef]float64{}
		for k := range res.Stages {
			for _, sp := range tr.OpSpans(k) {
				fin[opRef{k, sp.Op}] = sp.End
			}
		}
		var deps []sched.Dep
		for k := range res.Stages {
			for _, sp := range tr.OpSpans(k) {
				deps = s.Deps(deps[:0], k, sp.Op)
				for _, d := range deps {
					need := fin[opRef{d.Stage, d.Op}]
					if d.Stage != k {
						need += est.Comm
					}
					if sp.Start < need-1e-9 {
						t.Fatalf("%s: op %s@%d starts %.3f before dep %s@%d ready %.3f",
							s, sp.Op, k, sp.Start, d.Op, d.Stage, need)
					}
				}
			}
		}
	}
}

// TestStageUtilization reads each stage's forward, backward, weight and
// tail time from a recording's Snapshot: the class times add up to the
// stage's compute time, the tail to its tail time, the idle rest of the
// makespan averages to the bubble ratio, and the makespan is IterTime.
func TestStageUtilization(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 4, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	costs := UniformCosts{Est: sched.UniformEst{F: 1, BAct: 1, WPiece: 0.5}, Act: 1, Grad: 1}
	for _, tail := range []func(int) float64{nil, func(k int) float64 { return 0.25 * float64(k+1) }} {
		res, tr := runTraced(t, Options{Sched: s, Costs: costs, DynamicW: true, TailTime: tail})
		snap := tr.Snapshot()
		if math.Float64bits(snap.Makespan) != math.Float64bits(res.IterTime) {
			t.Fatalf("tail=%v: snapshot makespan %v != IterTime %v", tail != nil, snap.Makespan, res.IterTime)
		}
		idle := 0.0
		for k, m := range snap.Stages {
			if m.Forward <= 0 || m.Backward <= 0 || m.Weight <= 0 {
				t.Fatalf("stage %d: implausible busy times %v %v %v", k, m.Forward, m.Backward, m.Weight)
			}
			if busy := m.Forward + m.Backward + m.Weight; math.Abs(busy-res.Stages[k].ComputeTime) > 1e-9 {
				t.Errorf("stage %d: class times sum to %v, compute time %v", k, busy, res.Stages[k].ComputeTime)
			}
			wantTail := 0.0
			if tail != nil {
				wantTail = tail(k)
			}
			if math.Abs(m.Tail-wantTail) > 1e-9 {
				t.Errorf("stage %d: tail %v, want %v", k, m.Tail, wantTail)
			}
			// F and BAct have equal unit durations and counts; W is half.
			if rel := m.Forward / m.Backward; rel < 0.99 || rel > 1.01 {
				t.Errorf("stage %d: F/B time ratio %v, want 1", k, rel)
			}
			gap := snap.Makespan - m.Forward - m.Backward - m.Weight - m.Tail
			if gap < -1e-9 {
				t.Fatalf("stage %d: busy %v exceeds the makespan %v", k, snap.Makespan-gap, snap.Makespan)
			}
			idle += gap
		}
		// The mean idle fraction must reproduce the aggregate bubble ratio.
		if mean := idle / float64(len(snap.Stages)) / snap.Makespan; math.Abs(mean-res.BubbleRatio) > 1e-9 {
			t.Errorf("tail=%v: mean idle %v != bubble ratio %v", tail != nil, mean, res.BubbleRatio)
		}
	}
}

// TestMakespanBounds: simulated makespans must respect the order-free lower
// bounds, and the well-packed schedules must sit close to them.
func TestMakespanBounds(t *testing.T) {
	costs := Unit()
	cases := []struct {
		name  string
		build func() (*sched.Schedule, error)
		// slack: max allowed makespan / bound ratio
		slack float64
	}{
		{"dapple", func() (*sched.Schedule, error) { return sched.DAPPLE(4, 16, nil) }, 1.25},
		{"svpp", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 16, Reschedule: true})
		}, 1.10},
		{"gpipe", func() (*sched.Schedule, error) { return sched.GPipe(4, 8, nil) }, 1.40},
	}
	for _, c := range cases {
		s, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{Sched: s, Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		bound, err := MakespanBound(s, costs)
		if err != nil {
			t.Fatal(err)
		}
		if res.IterTime < bound-1e-9 {
			t.Errorf("%s: makespan %.2f beats the lower bound %.2f (impossible)", c.name, res.IterTime, bound)
		}
		if res.IterTime > bound*c.slack {
			t.Errorf("%s: makespan %.2f vs bound %.2f exceeds slack %.2f", c.name, res.IterTime, bound, c.slack)
		}
	}
	// Busiest-stage is the binding bound for large n (pipeline full).
	s, _ := sched.DAPPLE(4, 64, nil)
	busiest := BusiestStageBound(s, costs)
	cp, err := CriticalPathBound(s, costs)
	if err != nil {
		t.Fatal(err)
	}
	if busiest <= cp {
		t.Errorf("with n >> p the resource bound (%.0f) should dominate the chain bound (%.0f)", busiest, cp)
	}

	// Unit costs cannot tell a reassociated max/add apart, so the chain
	// bound's bits are pinned under real costs: Llama-13B on RTX 4090
	// servers, SVPP at N=16, F=2 with backward rescheduling.
	pins := []struct {
		par          config.Parallel
		fused, split float64
	}{
		{config.Parallel{PP: 8, DP: 4, CP: 1, TP: 1, SPP: 4, VP: 1}, 0.94992606963393922, 0.66935602868409783},
		{config.Parallel{PP: 4, DP: 2, CP: 1, TP: 1, SPP: 2, VP: 2}, 1.4664952986349904, 1.0322762365323024},
	}
	for _, p := range pins {
		mesh, err := cluster.NewMesh(cluster.RTX4090Cluster(p.par.Devices()/8), p.par)
		if err != nil {
			t.Fatal(err)
		}
		real, err := perf.New(config.Llama13B(), mesh)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []bool{false, true} {
			s, err := sched.SVPP(sched.SVPPOptions{
				P: p.par.PP, V: p.par.VP, S: p.par.SPP, N: 16, F: 2, Split: split,
				Reschedule: true, FineGrainedW: real.WPieces(), Est: real,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := CriticalPathBound(s, real)
			if err != nil {
				t.Fatal(err)
			}
			want := p.fused
			if split {
				want = p.split
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v split=%v: critical path %.17g, want %.17g", p.par, split, got, want)
			}
		}
	}
}

// TestCommDelayExact: a cross-stage dependency delays the consumer by
// exactly the link time.
func TestCommDelayExact(t *testing.T) {
	s, err := sched.DAPPLE(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	costs := UniformCosts{Est: sched.UniformEst{F: 1, BFused: 2, Comm: 0.75}, Act: 1}
	_, tr := runTraced(t, Options{Sched: s, Costs: costs})
	// Stage 1's forward starts at stage 0's finish (1.0) + comm.
	f1 := tr.OpSpans(1)[0]
	if f1.Start != 1.75 {
		t.Errorf("stage 1 forward starts at %v, want 1.75", f1.Start)
	}
	// Stage 0's backward starts at stage 1's backward finish + comm.
	b0 := tr.OpSpans(0)[1]
	want := tr.OpSpans(1)[1].End + 0.75
	if b0.Start != want {
		t.Errorf("stage 0 backward starts at %v, want %v", b0.Start, want)
	}
}

// TestOOMStageIndex: the reported OOM stage is the one whose budget broke.
func TestOOMStageIndex(t *testing.T) {
	s, err := sched.DAPPLE(4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := []int64{100, 100, 1, 100} // only stage 2 is tight (needs p-k = 2)
	res, err := Run(Options{Sched: s, Costs: Unit(), ActBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM || res.OOMStage != 2 {
		t.Errorf("OOM=%v at stage %d, want OOM at stage 2", res.OOM, res.OOMStage)
	}
}

// TestPerStageTail: stage-dependent tail times shift each stage's finish
// individually.
func TestPerStageTail(t *testing.T) {
	s, err := sched.DAPPLE(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, tr := runTraced(t, Options{Sched: s, Costs: Unit(), TailTime: func(k int) float64 { return float64(k) }})
	for k := range res.Stages {
		spans := tr.OpSpans(k)
		lastEnd := spans[len(spans)-1].End
		if got := res.Stages[k].Finish - lastEnd; got != float64(k) {
			t.Errorf("stage %d tail %v, want %d", k, got, k)
		}
	}
}

// TestMemorySeriesConsistent: each stage's curve of EvAlloc/EvFree Live
// totals steps by the events' Bytes, never goes negative, returns to zero,
// and peaks at the tracker's PeakAct, for every way a family is released
// — a fused B (DAPPLE), a whole W (ZB-1P) and the last of its WPieces
// (MEPipe) — in static mode and, for the split schedules, in dynamic
// mode, where weight-gradient work runs out of list order.
func TestMemorySeriesConsistent(t *testing.T) {
	costs := UniformCosts{Est: sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.3, Comm: 0.2}, Act: 5, Grad: 2}
	cases := []struct {
		name    string
		build   func() (*sched.Schedule, error)
		dynamic []bool
	}{
		{"dapple", func() (*sched.Schedule, error) { return sched.DAPPLE(4, 8, nil) }, []bool{false}},
		{"zb1p", func() (*sched.Schedule, error) { return sched.ZB1P(4, 8, nil) }, []bool{false, true}},
		{"mepipe-pieces", func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 2, 4, 0, 3, nil) }, []bool{false, true}},
	}
	for _, tc := range cases {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, dyn := range tc.dynamic {
			res, tr := runTraced(t, Options{Sched: s, Costs: costs, DynamicW: dyn})
			for k := 0; k < s.P; k++ {
				var live, peak int64
				for _, e := range tr.Events {
					if e.Stage != k || (e.Kind != obs.EvAlloc && e.Kind != obs.EvFree) {
						continue
					}
					if e.Kind == obs.EvAlloc {
						live += e.Bytes
					} else {
						live -= e.Bytes
					}
					if e.Live != live {
						t.Fatalf("%s dynamic=%v stage %d: event live %d, running total %d", tc.name, dyn, k, e.Live, live)
					}
					if live < 0 {
						t.Fatalf("%s dynamic=%v stage %d: negative retained bytes", tc.name, dyn, k)
					}
					peak = max(peak, live)
				}
				if peak != res.Stages[k].PeakAct {
					t.Errorf("%s dynamic=%v stage %d: event peak %d != tracked peak %d", tc.name, dyn, k, peak, res.Stages[k].PeakAct)
				}
				if live != 0 {
					t.Errorf("%s dynamic=%v stage %d: %d bytes leaked at iteration end", tc.name, dyn, k, live)
				}
			}
		}
	}
}

// TestBoundPropertyRandomShapes: for random SVPP shapes and skewed costs,
// the simulated makespan never beats the order-free lower bound.
func TestBoundPropertyRandomShapes(t *testing.T) {
	type shape struct{ P, V, S, N, F uint8 }
	costs := UniformCosts{Est: sched.UniformEst{F: 1, BFused: 2.3, Comm: 0.15}, Act: 1}
	check := func(sh shape) bool {
		p := int(sh.P)%5 + 1
		v := int(sh.V)%2 + 1
		s := int(sh.S)%3 + 1
		n := int(sh.N)%5 + 1
		f := int(sh.F)%(v*s*p+2) + 1
		sch, err := sched.SVPP(sched.SVPPOptions{P: p, V: v, S: s, N: n, F: f, Est: costs.Est})
		if err != nil {
			return false
		}
		res, err := Run(Options{Sched: sch, Costs: costs})
		if err != nil {
			return false
		}
		bound, err := MakespanBound(sch, costs)
		if err != nil {
			return false
		}
		return res.IterTime >= bound-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
