package opt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// skewCosts is a cost model whose durations, delays and footprints vary
// with the stage, kind, micro-batch and slice, so that re-solved finish
// times take many distinct float values.
type skewCosts struct{}

func (skewCosts) OpTime(k int, op sched.Op) float64 {
	base := [...]float64{sched.F: 1.1, sched.B: 2.3, sched.BAct: 1.3, sched.W: 0.9, sched.WPiece: 0.3}[op.Kind]
	return base * (1 + 0.07*float64(k) + 0.013*float64(op.Micro%5) + 0.11*float64(op.Slice))
}

func (skewCosts) CommTime(from, to int, op sched.Op) float64 {
	return 0.05 + 0.01*float64(from+2*to) + 0.003*float64(op.Slice)
}

func (skewCosts) ActBytes(k int, f sched.Op) int64  { return int64(2 + k + f.Micro%3 + f.Slice) }
func (skewCosts) GradBytes(k int, b sched.Op) int64 { return int64(1 + b.Slice + k%2) }

// movePreset builds one of the preset families the move fuzzer perturbs:
// fused DAPPLE and GPipe, VPP with two chunks, SVPP, ZB's split
// backwards, MEPipe's weight-gradient pieces and Hanayo's wave placement.
func movePreset(preset byte) (*sched.Schedule, error) {
	est := sched.Unit()
	switch preset % 7 {
	case 0:
		return sched.DAPPLE(4, 6, est)
	case 1:
		return sched.GPipe(3, 4, est)
	case 2:
		return sched.VPP(2, 2, 4, est)
	case 3:
		return sched.SVPP(sched.SVPPOptions{P: 3, V: 1, S: 2, N: 4, Reschedule: true, Est: est})
	case 4:
		return sched.ZB1P(3, 5, est)
	case 5:
		return sched.MEPipe(3, 1, 2, 3, 0, 3, est)
	}
	return sched.Hanayo(4, 4, est)
}

// moveBudget decodes the budget mode: its low two bits select none, a
// SlotBudget, or a byte budget charging the cost model's footprints; the
// next two put each cap 0–2 units above the preset's own peak on its
// stage, so that moves land on both sides of it.
func moveBudget(t *testing.T, s *sched.Schedule, costs sim.Costs, mode byte) *verify.Budget {
	t.Helper()
	slack := int64((mode >> 2) % 3)
	var b *verify.Budget
	switch (mode & 3) % 3 {
	case 0:
		return nil
	case 1:
		b = &verify.Budget{}
	default:
		b = &verify.Budget{FamilyBytes: costs.ActBytes, GradBytes: costs.GradBytes}
	}
	b.ActBudget = make([]int64, s.P)
	for k := range b.ActBudget {
		b.ActBudget[k] = math.MaxInt64
	}
	cert, err := verify.Certify(s, verify.Options{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	for k := range b.ActBudget {
		b.ActBudget[k] = cert.PeakBytes[k] + slack
	}
	return b
}

// sameTimes reports whether two results agree on every time, bit for bit.
func sameTimes(a, b *sim.Result) bool {
	bits := math.Float64bits
	if bits(a.IterTime) != bits(b.IterTime) || bits(a.BubbleRatio) != bits(b.BubbleRatio) || len(a.Stages) != len(b.Stages) {
		return false
	}
	for k, s := range a.Stages {
		o := b.Stages[k]
		if bits(s.ComputeTime) != bits(o.ComputeTime) || bits(s.Finish) != bits(o.Finish) {
			return false
		}
	}
	return true
}

// sameResult reports whether two results are equal in every field, bit
// for bit.
func sameResult(a, b *sim.Result) bool {
	if !sameTimes(a, b) || a.PeakAct != b.PeakAct || a.OOM != b.OOM || a.OOMStage != b.OOMStage {
		return false
	}
	for k, s := range a.Stages {
		if s.PeakAct != b.Stages[k].PeakAct {
			return false
		}
	}
	return true
}

// runCharged is sim.Run of s under the annealer's options: the budget's
// footprints as memory charges and its caps as ActBudget.
func runCharged(s *sched.Schedule, costs sim.Costs, budget *verify.Budget) (*sim.Result, error) {
	var caps []int64
	if budget != nil {
		caps = budget.ActBudget
	}
	return sim.Run(sim.Options{Sched: s, Costs: charged{costs, budget.Charges()}, ActBudget: caps})
}

// FuzzMoveMatchesCertifyAndRun is the differential gate for the move
// path, with Certify and sim.Run as its oracles. A preset, a budget mode
// and a cost model are bound as the annealer binds them; then a seeded
// stream of proposals from all three operators, no-op draws included, is
// evaluated against the current state, and some feasible ones are
// committed. For every move:
//   - it is feasible exactly when Certify(moved, Options{Budget}) is nil;
//   - a feasible move's Result equals, in every field and bit for bit,
//     sim.Run's of the moved schedule under the annealer's Options (the
//     budget's footprints as memory charges, its caps as ActBudget);
//   - its times equal, bit for bit, those of a sim.Run under the plain
//     cost model;
//   - after a rejected move, the current state evaluates bitwise as
//     before;
//   - after a commit, the current state evaluates bitwise as sim.Run of
//     it does, under the annealer's Options.
//
// Byte layout:
//
//	[0]     preset (see movePreset)
//	[1]     budget mode (see moveBudget); bit 7 selects skewCosts
//	[2..9]  the proposal stream's seed
//	[10..]  one byte per proposal: its maximum shift is 1 + b%12, and
//	        bit 7 commits it when it is feasible
func FuzzMoveMatchesCertifyAndRun(f *testing.F) {
	for preset := byte(0); preset < 7; preset++ {
		for _, mode := range []byte{0, 1, 2, 1 | 1<<2, 2 | 1<<2} {
			skew := (preset + mode) & 1 << 7
			seed := []byte{preset, mode | skew, preset, mode, 0, 0, 0, 0, 0, 1}
			for i := 0; i < 24; i++ {
				seed = append(seed, byte(i*37+int(preset)*11+int(mode)))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			t.Skip()
		}
		s, err := movePreset(data[0])
		if err != nil {
			t.Skip()
		}
		var costs sim.Costs = sim.UniformCosts{Est: sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.25, Comm: 0.2}, Act: 1, Grad: 1}
		if data[1]&0x80 != 0 {
			costs = skewCosts{}
		}
		budget := moveBudget(t, s, costs, data[1]&0x7f)
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[2:10]))))
		cur := cloneSchedule(s)
		st := bindMoves(t, cur, costs, budget)
		state := func() *sim.Result {
			r, err := st.se.Eval(cur)
			if err != nil {
				t.Fatalf("evaluating the current state: %v", err)
			}
			return r.Clone()
		}
		bound := state()
		var c candidate
		for i, b := range data[10:] {
			propose(rng, &c, cur, 1+int(b%12))
			moved := applied(cur, &c)
			evaluate(&c, bound.IterTime, st.ov)
			_, want := verify.Certify(moved, verify.Options{Budget: budget})
			if c.feasible != (want == nil) {
				t.Fatalf("move %d (%s on stage %d at %d, %d ops): feasible %v, Certify %v",
					i, c.operator, c.stage, c.lo, len(c.win), c.feasible, want)
			}
			if !c.feasible {
				if r := state(); !sameResult(r, bound) {
					t.Fatalf("move %d: a rejected move changed the current state's evaluation", i)
				}
				continue
			}
			full, err := runCharged(moved, costs, budget)
			if err != nil {
				t.Fatalf("move %d: sim.Run of a feasible move: %v", i, err)
			}
			plain, err := sim.Run(sim.Options{Sched: moved, Costs: costs})
			if err != nil {
				t.Fatalf("move %d: plain-cost sim.Run of a feasible move: %v", i, err)
			}
			got := bound
			if len(c.win) > 0 {
				if got, err = st.ov.Eval(); err != nil {
					t.Fatalf("move %d: %v", i, err)
				}
			}
			if !sameResult(got, full) || math.Float64bits(c.time) != math.Float64bits(full.IterTime) {
				t.Fatalf("move %d (%s on stage %d): overlay %+v, sim.Run %+v", i, c.operator, c.stage, *got, *full)
			}
			if !sameTimes(got, plain) {
				t.Fatalf("move %d (%s on stage %d): overlay %+v, plain-cost sim.Run %+v", i, c.operator, c.stage, *got, *plain)
			}
			if b&0x80 == 0 {
				continue
			}
			if err := commit(&c, cur, st.ov); err != nil {
				t.Fatalf("move %d: commit: %v", i, err)
			}
			if bound = state(); !sameResult(bound, full) {
				t.Fatalf("move %d: the committed state evaluates to %+v, sim.Run %+v", i, *bound, *full)
			}
		}
	})
}
