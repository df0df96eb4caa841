package verify

import (
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// TestCertifyPeaksMatchRun holds the certifier's memory sweep to the
// simulator's static memory scan over every preset family: under the same
// non-unit, stage-dependent footprints, Certify's PeakBytes must equal
// sim.Run's per-stage PeakAct; so must they under a SlotBudget, with
// sim.Run charging the budget's Charges; and under unit costs its
// PeakFamilies must too. Both step through one retention rule
// (sched.RetentionOf); this pins that they apply it to the same ops in
// the same order, and that a session charging a budget's footprints is
// that budget's sweep (the annealer's move overlay relies on it).
func TestCertifyPeaksMatchRun(t *testing.T) {
	act := func(k int, f sched.Op) int64 { return int64(5 + 3*k + f.Micro%3 + 2*f.Slice + f.Chunk) }
	grad := func(k int, b sched.Op) int64 { return int64(2 + k + b.Slice) }
	for _, p := range []int{2, 4} {
		n := 2 * p
		builds := map[string]func() (*sched.Schedule, error){
			"gpipe":    func() (*sched.Schedule, error) { return sched.GPipe(p, n, nil) },
			"dapple":   func() (*sched.Schedule, error) { return sched.DAPPLE(p, n, nil) },
			"vpp":      func() (*sched.Schedule, error) { return sched.VPP(p, 2, n, nil) },
			"hanayo":   func() (*sched.Schedule, error) { return sched.Hanayo(p, n, nil) },
			"terapipe": func() (*sched.Schedule, error) { return sched.TeraPipe(p, 3, n, nil) },
			"zb1p":     func() (*sched.Schedule, error) { return sched.ZB1P(p, n, nil) },
			"zbv":      func() (*sched.Schedule, error) { return sched.ZBV(p, n, nil) },
			"mepipe":   func() (*sched.Schedule, error) { return sched.MEPipe(p, 2, 2, n, 0, 3, nil) },
		}
		for _, resched := range []bool{false, true} {
			for _, mode := range []struct {
				name   string
				split  bool
				pieces int
			}{{"fused", false, 0}, {"split", true, 0}, {"pieces", true, 2}} {
				o := sched.SVPPOptions{P: p, V: 2, S: 2, N: n, Reschedule: resched, Split: mode.split, FineGrainedW: mode.pieces}
				name := "svpp-" + mode.name
				if resched {
					name += "-rescheduled"
				}
				builds[name] = func() (*sched.Schedule, error) { return sched.SVPP(o) }
			}
		}
		for name, build := range builds {
			s, err := build()
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, name, err)
			}
			t.Run(name, func(t *testing.T) { requirePeaksMatch(t, s, act, grad) })
		}
	}
}

// footprintCosts charges the given footprints with unit op times, so
// sim.Run accounts the bytes a Budget with the same footprints does.
type footprintCosts struct {
	sim.UniformCosts
	fp Footprints
}

func (c footprintCosts) ActBytes(k int, f sched.Op) int64  { return c.fp.ActBytes(k, f) }
func (c footprintCosts) GradBytes(k int, b sched.Op) int64 { return c.fp.GradBytes(k, b) }

// requirePeaksMatch asserts that Certify's per-stage peaks equal a static
// sim.Run's on s: PeakBytes under the footprints act and grad, and under
// a SlotBudget capped at s's own peaks, each run charging the budget's
// Charges under its caps; and PeakFamilies under unit costs.
func requirePeaksMatch(t *testing.T, s *sched.Schedule, act, grad func(int, sched.Op) int64) {
	t.Helper()
	plain, err := Certify(s, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	byUnit, err := sim.Run(sim.Options{Sched: s, Costs: sim.Unit()})
	if err != nil {
		t.Fatalf("sim.Run under unit costs: %v", err)
	}
	for k := range s.Stages {
		if got, want := int64(plain.PeakFamilies[k]), byUnit.Stages[k].PeakAct; got != want {
			t.Errorf("stage %d: Certify PeakFamilies %d, unit-cost sim.Run PeakAct %d", k, got, want)
		}
	}
	for name, b := range map[string]*Budget{
		"footprints": {FamilyBytes: act, GradBytes: grad},
		"slots":      SlotBudget(plain.PeakFamilies),
	} {
		cert, err := Certify(s, Options{Budget: b})
		if err != nil {
			t.Fatalf("%s: certify: %v", name, err)
		}
		run, err := sim.Run(sim.Options{Sched: s, Costs: footprintCosts{sim.Unit(), b.Charges()}, ActBudget: b.ActBudget})
		if err != nil {
			t.Fatalf("%s: sim.Run under the budget's charges: %v", name, err)
		}
		if run.OOM {
			t.Errorf("%s: sim.Run marks stage %d OOM under a budget Certify proves", name, run.OOMStage)
		}
		for k := range s.Stages {
			if got, want := cert.PeakBytes[k], run.Stages[k].PeakAct; got != want {
				t.Errorf("%s: stage %d: Certify PeakBytes %d, sim.Run PeakAct %d", name, k, got, want)
			}
		}
	}
}
