package opt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

var writeDiscovered = flag.Bool("write-discovered", false,
	"regenerate testdata/discovered.json (the checked-in discovered-schedule artifact)")

// discoveredPoint is the canonical optimization point of the checked-in
// artifact: P=4, V=1, S=2, N=6 under a 5-family-per-stage slot budget
// with unit op costs and 0.2 communication.
func discoveredPoint() *Artifact {
	return &Artifact{
		Note: "discovered-schedule artifact; regenerate with `make opt-regen` " +
			"(go test ./internal/opt -run TestWriteDiscovered -write-discovered)",
		P: 4, V: 1, S: 2, N: 6,
		Est:        sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0, Comm: 0.2},
		ActBytes:   1,
		GradBytes:  0,
		SlotBudget: []int{5, 5, 5, 5},
		Opt:        ArtifactOpt{Seed: 1, Iters: 1500, Proposals: 4},
	}
}

// TestWriteDiscovered regenerates the checked-in artifact: sweep the
// preset family at the canonical point, anneal from the best preset with
// the recorded seed, and save preset + discovered + their times. Only
// runs under -write-discovered.
func TestWriteDiscovered(t *testing.T) {
	if !*writeDiscovered {
		t.Skip("no -write-discovered; run via make opt-regen")
	}
	a := discoveredPoint()
	best, presetSched, err := a.BestPreset()
	if err != nil {
		t.Fatalf("preset sweep: %v", err)
	}
	a.Preset = best
	res, err := Optimize(context.Background(), presetSched, a.Costs(), Options{
		Seed: a.Opt.Seed, Iters: a.Opt.Iters, Proposals: a.Opt.Proposals,
		Budget: a.Budget(),
	})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.BestTime >= best.IterTime-eps {
		t.Fatalf("discovered %.3f does not beat best preset %.3f; not writing artifact", res.BestTime, best.IterTime)
	}
	a.Opt.IterTime = res.BestTime
	var doc bytes.Buffer
	if err := res.Schedule.Save(&doc); err != nil {
		t.Fatalf("save schedule: %v", err)
	}
	a.Schedule = json.RawMessage(doc.Bytes())
	f, err := os.Create("testdata/discovered.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := a.Save(f); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote testdata/discovered.json: preset %s %.3f -> discovered %.3f (%.2f%%)",
		best.Name, best.IterTime, res.BestTime, 100*(best.IterTime-res.BestTime)/best.IterTime)
}

// TestDiscoveredBeatsPresets is the regression gate CI runs on every
// push: the checked-in schedule must (a) certify clean — completeness
// included — under its recorded budget, (b) simulate to its recorded
// iteration time, and (c) beat the best preset of a from-scratch sweep
// of the whole SVPP family at the point.
func TestDiscoveredBeatsPresets(t *testing.T) {
	a, err := Discovered()
	if err != nil {
		t.Fatalf("loading artifact: %v", err)
	}
	s, err := a.DiscoveredSchedule()
	if err != nil {
		t.Fatalf("decoding discovered schedule: %v", err)
	}
	cert, err := verify.Certify(s, verify.Options{Budget: a.Budget()})
	if err != nil {
		t.Fatalf("discovered schedule no longer certifies: %v", err)
	}
	for k, peak := range cert.PeakFamilies {
		if peak > a.SlotBudget[k] {
			t.Errorf("stage %d peak %d exceeds slot budget %d", k, peak, a.SlotBudget[k])
		}
	}
	r, err := sim.Run(sim.Options{Sched: s, Costs: a.Costs()})
	if err != nil {
		t.Fatalf("simulating discovered schedule: %v", err)
	}
	if diff := r.IterTime - a.Opt.IterTime; diff > eps || diff < -eps {
		t.Errorf("discovered schedule simulates to %.6f, artifact records %.6f", r.IterTime, a.Opt.IterTime)
	}
	best, _, err := a.BestPreset()
	if err != nil {
		t.Fatalf("preset sweep: %v", err)
	}
	if diff := best.IterTime - a.Preset.IterTime; diff > eps || diff < -eps {
		t.Errorf("best preset is now %s at %.6f, artifact records %s at %.6f",
			best.Name, best.IterTime, a.Preset.Name, a.Preset.IterTime)
	}
	if r.IterTime >= best.IterTime-eps {
		t.Errorf("discovered schedule (%.6f) no longer beats the best preset %s (%.6f)",
			r.IterTime, best.Name, best.IterTime)
	}
}

// TestDiscoveredBytesPinned re-runs the optimizer with the artifact's
// recorded seed and asserts it reproduces the checked-in schedule byte
// for byte — the end-to-end determinism gate — along with the run's five
// search counters and its best time, bit for bit. Any change to the
// search's rng consumption or to how it classifies a proposal shows up
// here and forces a conscious regeneration.
func TestDiscoveredBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length deterministic replay")
	}
	a, err := Discovered()
	if err != nil {
		t.Fatal(err)
	}
	presetSched, err := a.PresetSchedule()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), presetSched, a.Costs(), Options{
		Seed: a.Opt.Seed, Iters: a.Opt.Iters, Proposals: a.Opt.Proposals,
		Budget: a.Budget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := [5]int{res.Proposed, res.Infeasible, res.Evaluated, res.Accepted, res.Improved}
	if want := [5]int{6000, 3271, 2729, 908, 5}; counters != want {
		t.Errorf("proposed/infeasible/evaluated/accepted/improved = %v, want %v", counters, want)
	}
	if got, want := math.Float64bits(res.BestTime), math.Float64bits(49.000000000000014); got != want {
		t.Errorf("BestTime = %v (%#x), want 49.000000000000014 (%#x)", res.BestTime, got, want)
	}
	var got bytes.Buffer
	if err := res.Schedule.Save(&got); err != nil {
		t.Fatal(err)
	}
	var want, gotC bytes.Buffer
	if err := json.Compact(&want, a.Schedule); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&gotC, got.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), gotC.Bytes()) {
		t.Errorf("replaying seed %d did not reproduce the checked-in schedule;\ngot  %s\nwant %s",
			a.Opt.Seed, gotC.Bytes(), want.Bytes())
	}
}

// TestOptimizeSmoke is the short fixed-seed optimization the CI
// opt-smoke job runs: a few hundred rounds on the canonical point must
// hold the optimizer's invariants and not regress below its seed.
func TestOptimizeSmoke(t *testing.T) {
	a := discoveredPoint()
	best, presetSched, err := a.BestPreset()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := Optimize(context.Background(), presetSched, a.Costs(), Options{
		Seed: 1, Iters: 200, Budget: a.Budget(), Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseTime != best.IterTime {
		t.Errorf("base time %.6f, preset sweep said %.6f", res.BaseTime, best.IterTime)
	}
	if res.BestTime > res.BaseTime+eps {
		t.Errorf("search worsened the schedule: %.6f > %.6f", res.BestTime, res.BaseTime)
	}
	if res.Cert == nil {
		t.Fatal("no certificate on result")
	}
	if res.Proposed != 200*4 {
		t.Errorf("proposed %d, want %d", res.Proposed, 200*4)
	}
	if res.Evaluated+res.Infeasible != res.Proposed {
		t.Errorf("evaluated %d + infeasible %d != proposed %d", res.Evaluated, res.Infeasible, res.Proposed)
	}
	moves := 0
	for _, e := range rec.Trace().Events {
		if e.Kind == obs.EvMove {
			moves++
		}
	}
	if moves != res.Proposed {
		t.Errorf("%d EvMove events for %d proposals", moves, res.Proposed)
	}
}

// fanOutSchedule is a schedule whose rounds fan out: MEPipe at P=8, S=4,
// N=12 with 7 weight-gradient pieces (3,456 ops), so a round of 4
// proposals is at fanOutCutoff.
func fanOutSchedule(tb testing.TB) *sched.Schedule {
	tb.Helper()
	s, err := sched.MEPipe(8, 1, 4, 12, 0, 7, sched.Unit())
	if err != nil {
		tb.Fatal(err)
	}
	if numOps(s)*4 < fanOutCutoff {
		tb.Fatalf("%d ops × 4 proposals is below the fan-out cutoff %d", numOps(s), fanOutCutoff)
	}
	return s
}

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestOptimizeDeterministicAcrossWorkers pins that Workers and GOMAXPROCS
// affect wall-clock only: every Workers ∈ {1, 2, 8} × GOMAXPROCS ∈ {1, 2}
// run discovers byte-identical schedules with bitwise-equal best times and
// identical counters, both at the artifact point, whose rounds run on the
// caller, and at a schedule whose rounds fan out to the worker group.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	a := discoveredPoint()
	_, presetSched, err := a.BestPreset()
	if err != nil {
		t.Fatal(err)
	}
	points := []struct {
		name   string
		s      *sched.Schedule
		costs  sim.Costs
		budget *verify.Budget
		iters  int
		serial bool
	}{
		{"artifact", presetSched, a.Costs(), a.Budget(), 150, true},
		{"fan-out", fanOutSchedule(t), sim.Unit(), nil, 40, false},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			var first *Result
			var firstBytes []byte
			for _, procs := range []int{1, 2} {
				for _, workers := range []int{1, 2, 8} {
					var res *Result
					var err error
					withProcs(procs, func() {
						res, err = Optimize(context.Background(), p.s, p.costs, Options{
							Seed: 7, Iters: p.iters, Workers: workers, Budget: p.budget,
						})
					})
					if err != nil {
						t.Fatal(err)
					}
					want := 1
					if !p.serial {
						want = min(workers, 4, procs)
					}
					if res.Workers != want {
						t.Errorf("Workers=%d GOMAXPROCS=%d: ran %d workers, want %d", workers, procs, res.Workers, want)
					}
					var b bytes.Buffer
					if err := res.Schedule.Save(&b); err != nil {
						t.Fatal(err)
					}
					if first == nil {
						if res.Accepted == 0 {
							t.Fatal("no move accepted; the comparison would be vacuous")
						}
						first, firstBytes = res, b.Bytes()
						continue
					}
					if !bytes.Equal(b.Bytes(), firstBytes) {
						t.Errorf("Workers=%d GOMAXPROCS=%d discovered a different schedule", workers, procs)
					}
					if math.Float64bits(res.BestTime) != math.Float64bits(first.BestTime) {
						t.Errorf("Workers=%d GOMAXPROCS=%d: best time %.17g, want %.17g", workers, procs, res.BestTime, first.BestTime)
					}
					got := [5]int{res.Proposed, res.Infeasible, res.Evaluated, res.Accepted, res.Improved}
					wantC := [5]int{first.Proposed, first.Infeasible, first.Evaluated, first.Accepted, first.Improved}
					if got != wantC {
						t.Errorf("Workers=%d GOMAXPROCS=%d: proposed/infeasible/evaluated/accepted/improved = %v, want %v",
							workers, procs, got, wantC)
					}
				}
			}
		})
	}
}

// TestFanOutReferencePoints pins the fan-out decision at the reference
// points: the artifact point's rounds run on the caller, and the 13B
// point's (MEPipe P=8, S=4, N=16, 7 weight-gradient pieces) fan out to
// min(Workers, Proposals, GOMAXPROCS) workers. Between them, the measured
// two-worker break-even (N=12, 3,456 ops) fans out, and the points below
// it (N=10, 2,880 ops, and N=2, 576 ops, which fanned out before moves)
// run on the caller.
func TestFanOutReferencePoints(t *testing.T) {
	_, artifact, err := discoveredPoint().BestPreset()
	if err != nil {
		t.Fatal(err)
	}
	big, err := sched.MEPipe(8, 1, 4, 16, 0, 7, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	if n := numOps(artifact); n != 96 {
		t.Fatalf("artifact point has %d ops, want 96", n)
	}
	if n := numOps(big); n != 4608 {
		t.Fatalf("13B point has %d ops, want 4608", n)
	}
	for _, c := range []struct{ ops, workers, procs, want int }{
		{96, 4, 2, 1},
		{96, 8, 64, 1},
		{576, 4, 2, 1},
		{2880, 4, 2, 1},
		{3456, 4, 2, 2},
		{4608, 4, 2, 2},
		{4608, 8, 64, 4},
		{4608, 3, 64, 3},
		{4608, 4, 1, 1},
		{4608, 1, 2, 1},
	} {
		if got := fanOut(c.ops, 4, c.workers, c.procs); got != c.want {
			t.Errorf("fanOut(ops=%d, proposals=4, workers=%d, procs=%d) = %d, want %d",
				c.ops, c.workers, c.procs, got, c.want)
		}
	}
}

// cancelAfter cancels its context once it has seen n events.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Emit(obs.Event) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

// TestOptimizeJoinsWorkers pins that a run's worker group never outlives
// Optimize: the goroutine count settles back to its baseline after a
// normal return, after a context cancelled mid-search, and after an
// early error return.
func TestOptimizeJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := fanOutSchedule(t)
	base := runtime.NumGoroutine()
	settled := func(after string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, baseline %d", after, n, base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	res, err := Optimize(context.Background(), s, sim.Unit(), Options{Seed: 1, Iters: 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Fatalf("ran %d workers, want 2: the group must start for this test to check anything", res.Workers)
	}
	settled("a normal run")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Optimize(ctx, s, sim.Unit(), Options{
		Seed: 1, Iters: 1000, Workers: 2, Trace: &cancelAfter{n: 3 * 4, cancel: cancel},
	})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled mid-search: got %v, want ErrCancelled", err)
	}
	settled("a run cancelled mid-search")

	tight := verify.SlotBudget([]int{1, 1, 1, 1, 1, 1, 1, 1})
	if _, err := Optimize(context.Background(), s, sim.Unit(), Options{Workers: 2, Budget: tight}); !errors.Is(err, errs.ErrUncertified) {
		t.Fatalf("over-budget seed: got %v, want ErrUncertified", err)
	}
	settled("an early error return")
}

// TestOptimizeErrors pins the sentinel contract.
func TestOptimizeErrors(t *testing.T) {
	a := discoveredPoint()
	_, presetSched, err := a.BestPreset()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := Optimize(ctx, nil, a.Costs(), Options{}); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("nil schedule: got %v, want ErrIncompatible", err)
	}
	if _, err := Optimize(ctx, presetSched, nil, Options{}); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("nil costs: got %v, want ErrIncompatible", err)
	}
	tight := verify.SlotBudget([]int{1, 1, 1, 1})
	if _, err := Optimize(ctx, presetSched, a.Costs(), Options{Budget: tight}); !errors.Is(err, errs.ErrUncertified) {
		t.Errorf("over-budget seed: got %v, want ErrUncertified", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Optimize(cancelled, presetSched, a.Costs(), Options{Iters: 50}); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled ctx: got %v, want ErrCancelled", err)
	}
}

// TestOptimizeFusedAndSplitPresets runs the annealer across backward
// modes and layouts: fused (B), split (BAct+W), fine-grained (WPiece),
// wave and full MEPipe schedules all optimize without error, never regress, leave
// the input untouched, and report a BestTime a full replay reproduces
// bitwise. The gain bounds pin what local search finds: a real share of
// the greedy wave order's slack, and next to nothing on the rescheduled
// SVPP order, which already sits near the analytic bound.
func TestOptimizeFusedAndSplitPresets(t *testing.T) {
	est := sched.Unit()
	costs := sim.Unit()
	cases := []struct {
		name             string
		make             func() (*sched.Schedule, error)
		iters            int
		minGain, maxGain float64
	}{
		{"dapple", func() (*sched.Schedule, error) { return sched.DAPPLE(4, 8, est) }, 100, 0, 1},
		{"zb1p", func() (*sched.Schedule, error) { return sched.ZB1P(4, 8, est) }, 100, 0, 1},
		{"svpp-fine", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 4, F: 4, Split: true, FineGrainedW: 2, Est: est})
		}, 100, 0, 1},
		{"hanayo", func() (*sched.Schedule, error) { return sched.Hanayo(4, 8, est) }, 1000, 0.03, 1},
		{"svpp-rescheduled", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 8, Reschedule: true, Est: est})
		}, 1000, 0, 0.02},
		{"mepipe", func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 2, 4, 0, 3, est) }, 300, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			var before bytes.Buffer
			if err := s.Save(&before); err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(context.Background(), s, costs, Options{Seed: 1, Iters: tc.iters})
			if err != nil {
				t.Fatal(err)
			}
			if res.BestTime > res.BaseTime+eps {
				t.Errorf("worsened: %.6f > %.6f", res.BestTime, res.BaseTime)
			}
			t.Logf("%.4g -> %.4g (%.2f%%)", res.BaseTime, res.BestTime, 100*res.Gain())
			if g := res.Gain(); g < tc.minGain || g > tc.maxGain {
				t.Errorf("gain %.2f%%, want within [%.0f%%, %.0f%%]", 100*g, 100*tc.minGain, 100*tc.maxGain)
			}
			if !reflect.DeepEqual(opMultiset(s), opMultiset(res.Schedule)) {
				t.Error("optimization changed the op multiset")
			}
			var after bytes.Buffer
			if err := s.Save(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Error("optimization mutated the input schedule")
			}
			replay, err := sim.Run(sim.Options{Sched: res.Schedule, Costs: costs})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(replay.IterTime) != math.Float64bits(res.BestTime) {
				t.Errorf("claimed %.17g, replay %.17g", res.BestTime, replay.IterTime)
			}
		})
	}
}

// opMultiset returns per-stage op multisets (order-insensitive).
func opMultiset(s *sched.Schedule) []map[sched.Op]int {
	out := make([]map[sched.Op]int, len(s.Stages))
	for k, ops := range s.Stages {
		out[k] = make(map[sched.Op]int, len(ops))
		for _, op := range ops {
			out[k][op]++
		}
	}
	return out
}

// TestDiscoveredReplaysThroughSession pins the fast-evaluation layer to
// the checked-in artifact: the incremental session must reproduce the
// full simulator bitwise on the discovered schedule, and both must land on
// the recorded iteration time.
// This is the regression gate for the session fast path at the exact
// point the optimizer bench replays.
func TestDiscoveredReplaysThroughSession(t *testing.T) {
	a, err := Discovered()
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.DiscoveredSchedule()
	if err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{Sched: s, Costs: a.Costs()}
	full, err := sim.Run(opt)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	se, err := sim.NewSession(opt)
	if err != nil {
		t.Fatalf("binding session: %v", err)
	}
	inc, err := se.Eval(s)
	if err != nil {
		t.Fatalf("incremental replay: %v", err)
	}
	if math.Float64bits(inc.IterTime) != math.Float64bits(full.IterTime) ||
		math.Float64bits(inc.BubbleRatio) != math.Float64bits(full.BubbleRatio) {
		t.Fatalf("session replay diverges: inc %.17g/%.17g, full %.17g/%.17g",
			inc.IterTime, inc.BubbleRatio, full.IterTime, full.BubbleRatio)
	}
	if diff := inc.IterTime - a.Opt.IterTime; diff > eps || diff < -eps {
		t.Fatalf("session replays discovered schedule to %.6f, artifact records %.6f", inc.IterTime, a.Opt.IterTime)
	}
}
