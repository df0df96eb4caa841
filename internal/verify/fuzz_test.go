package verify

import (
	"errors"
	"reflect"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// FuzzCertifyDenseMatchesGraph is the differential gate behind the dense
// certification path, with the labelled map graph (buildGraph, edges,
// residual, minimalCycle) and the map-based memory sweep (mapSweep) as
// oracles. For fused, split and wave presets perturbed by random
// within-stage swaps and displacements, on every table that passes the
// universe check with no dependency outside the shape, kahnDense's
// node/edge statistics and acyclic verdict must equal the graph's, and
// Certify must give the same answer the oracles give: the same
// *CycleError on a cyclic order, else the same certificate or
// *BudgetError. Byte layout:
//
//	[0..3]  preset, P, N, S
//	[4]     budget (see fuzzBudget)
//	[5..]   move stream, 3 bytes per move (see applyMove)
func FuzzCertifyDenseMatchesGraph(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 0, 5, 0, 3, 4})
	f.Add([]byte{2, 2, 2, 0, 2, 0, 7, 2, 1, 1, 9})
	f.Add([]byte{3, 1, 0, 1, 3, 2, 4, 0, 3, 8, 8})
	f.Add([]byte{4, 0, 2, 0, 4, 1, 3, 6, 0, 0, 1})
	f.Add([]byte{5, 2, 1, 1, 5, 3, 11, 2, 2, 5, 4})
	f.Add([]byte{2, 2, 2, 1, 6, 0x81, 3, 15, 0x80, 9, 0, 0x81, 20, 16})
	f.Add([]byte{4, 2, 2, 0, 7, 0x80, 30, 2, 0x81, 7, 14, 0x82, 11, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		s := fuzzPreset(data[0]%6, 2+int(data[1]%3), 2+int(data[2]%3), 1+int(data[3]%2))
		if s == nil {
			t.Skip()
		}
		b := fuzzBudget(data[4], s.P)
		fuzzCompare(t, s, b)
		for i := 5; i+2 < len(data); i += 3 {
			applyMove(s, data[i:i+3])
			fuzzCompare(t, s, b)
		}
	})
}

// FuzzCertifyAgreesWithRun pins the optimizer's feasibility oracle
// against its cost oracle: on random swap and displacement streams over
// DAPPLE, ZB1P, MEPipe and Hanayo presets, Certify (without a Budget)
// accepts an order exactly when sim.Run simulates it without reporting a
// deadlock. It also holds the strategy path's gate: on split presets a
// DynamicW run, as Plan.Simulate binds MEPipe, fails exactly when Certify
// rejects, with a deadlock verdict too. Byte layout:
//
//	[0..3]  preset, P, N, S
//	[4..]   move stream, 3 bytes per move (see applyMove)
func FuzzCertifyAgreesWithRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 1, 0x80, 5, 0, 1, 3, 4})
	f.Add([]byte{2, 2, 2, 1, 0x81, 7, 2, 1, 1, 9})
	f.Add([]byte{3, 2, 1, 0, 0x82, 11, 16, 0x80, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		presets := [...]byte{0, 2, 3, 4} // DAPPLE, ZB1P, MEPipe, Hanayo
		s := fuzzPreset(presets[data[0]%4], 2+int(data[1]%3), 2+int(data[2]%3), 1+int(data[3]%2))
		if s == nil {
			t.Skip()
		}
		check := func() {
			t.Helper()
			_, cerr := Certify(s, Options{})
			modes := []bool{false}
			if s.SplitBW {
				modes = append(modes, true)
			}
			for _, dyn := range modes {
				_, rerr := sim.Run(sim.Options{Sched: s, Costs: sim.Unit(), DynamicW: dyn})
				if rerr != nil && !errors.Is(rerr, errs.ErrUncertified) {
					t.Fatalf("sim.Run (dynamic W %v) failed for a reason other than a deadlock: %v", dyn, rerr)
				}
				if (cerr == nil) != (rerr == nil) {
					t.Fatalf("Certify and sim.Run (dynamic W %v) disagree: certify=%v run=%v", dyn, cerr, rerr)
				}
			}
		}
		check()
		for i := 4; i+2 < len(data); i += 3 {
			applyMove(s, data[i:i+3])
			check()
		}
	})
}

// fuzzPreset builds one of the fused, split and wave presets the fuzzers
// perturb, or nil when the shape does not apply.
func fuzzPreset(preset byte, p, n, sl int) *sched.Schedule {
	var s *sched.Schedule
	var err error
	switch preset {
	case 0: // fused
		s, err = sched.DAPPLE(p, n, nil)
	case 1: // fused, sliced and interleaved
		s, err = sched.SVPP(sched.SVPPOptions{P: p, V: 2, S: sl, N: n, Reschedule: true})
	case 2: // split
		s, err = sched.ZB1P(p, n, nil)
	case 3: // split into weight-gradient pieces
		s, err = sched.MEPipe(p, 1, sl, n, 0, 2, nil)
	case 4: // wave
		s, err = sched.Hanayo(p, n, nil)
	case 5: // split wave
		s, err = sched.ZBV(p, n, nil)
	}
	if err != nil {
		return nil
	}
	return s
}

// applyMove perturbs one stage's order. Bit 7 of the first byte selects
// a displacement — the op at move[1] slides up to 8 positions along its
// stage, like the optimizer's shift and rebalance moves — and otherwise
// the ops at move[1] and move[2] swap; the remaining bits pick the stage.
func applyMove(s *sched.Schedule, move []byte) {
	ops := s.Stages[int(move[0]&0x7f)%s.P]
	a := int(move[1]) % len(ops)
	if move[0]&0x80 == 0 {
		b := int(move[2]) % len(ops)
		ops[a], ops[b] = ops[b], ops[a]
		return
	}
	to := min(max(a+int(move[2]%17)-8, 0), len(ops)-1)
	op := ops[a]
	if a < to {
		copy(ops[a:], ops[a+1:to+1])
	} else {
		copy(ops[to+1:], ops[to:a])
	}
	ops[to] = op
}

// fuzzBudget decodes the budget byte: the low two bits are a per-stage
// cap of 1–4 units, tight enough that the presets' own peaks trip it;
// bit 2 charges byte footprints (stage-, micro- and slice-dependent, with
// gradient retention) at three times the cap; bit 3 drops the budget.
func fuzzBudget(c byte, p int) *Budget {
	if c&8 != 0 {
		return nil
	}
	caps := make([]int, p)
	for k := range caps {
		caps[k] = 1 + int(c&3)
	}
	b := SlotBudget(caps)
	if c&4 != 0 {
		for k := range b.ActBudget {
			b.ActBudget[k] *= 3
		}
		b.FamilyBytes = func(k int, f sched.Op) int64 { return int64(1 + k + f.Micro%3) }
		b.GradBytes = func(k int, op sched.Op) int64 { return int64(1 + op.Slice) }
	}
	return b
}

// fuzzCompare checks the dense paths against the oracles on one order.
func fuzzCompare(t *testing.T, s *sched.Schedule, b *Budget) {
	t.Helper()
	var dense Certificate
	sc := new(certScratch)
	tab := s.DepTable()
	if sc.Load(s).Kind != sched.NoFault || tab.Neg > 0 {
		return
	}
	ok := kahnDense(s, tab, &dense, sc)
	g, err := buildGraph(s)
	if err != nil {
		t.Fatalf("dense path handled a schedule the graph rejects: %v", err)
	}
	want := &Certificate{Schedule: s.String(), Nodes: len(g.nodes)}
	want.Edges, want.CrossEdges = g.edges()
	if dense.Nodes != want.Nodes || dense.Edges != want.Edges || dense.CrossEdges != want.CrossEdges {
		t.Fatalf("statistics differ: dense %d nodes, %d edges (%d cross); graph %d, %d (%d)",
			dense.Nodes, dense.Edges, dense.CrossEdges, want.Nodes, want.Edges, want.CrossEdges)
	}
	res := g.residual()
	if ok != (res == nil) {
		t.Fatalf("verdicts differ: dense acyclic=%v, graph acyclic=%v", ok, res == nil)
	}
	var wantErr error
	if res != nil {
		nodes, kinds := g.minimalCycle(res)
		wantErr = &CycleError{Schedule: want.Schedule, Cycle: nodes, Kind: kinds}
	} else {
		wantErr = mapSweep(s, b, want)
	}
	cert, err := Certify(s, Options{Budget: b})
	if wantErr != nil {
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("Certify returned\n  %v\nthe oracles give\n  %v", err, wantErr)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(cert, want) {
		t.Fatalf("Certify returned %v (%v), the oracles give %v", cert, err, want)
	}
}

// mapSweep is the memory sweep's oracle: the same retention rules over
// per-stage maps keyed by Op.Key, as the certifier ran them before the
// sweep moved onto the dense op index.
func mapSweep(s *sched.Schedule, b *Budget, cert *Certificate) error {
	famBytes := func(stage int, op sched.Op) int64 { return 1 }
	gradBytes := func(stage int, op sched.Op) int64 { return 0 }
	if b != nil {
		if b.FamilyBytes != nil {
			famBytes = b.FamilyBytes
		}
		if b.GradBytes != nil {
			gradBytes = b.GradBytes
		}
	}
	cert.PeakFamilies = make([]int, s.P)
	if b != nil {
		cert.PeakBytes = make([]int64, s.P)
	}
	for k, ops := range s.Stages {
		var live int64
		fams := map[sched.Op]int64{} // family key -> retained bytes
		pieces := map[sched.Op]int{} // family key -> executed WPieces
		peakFams, peakBytes := 0, int64(0)
		for i, op := range ops {
			key := op.Key()
			switch op.Kind {
			case sched.F:
				add := famBytes(k, op)
				fams[key] += add
				live += add
			case sched.B:
				live -= fams[key]
				delete(fams, key)
			case sched.BAct:
				add := gradBytes(k, op)
				fams[key] += add
				live += add
			case sched.W:
				live -= fams[key]
				delete(fams, key)
			case sched.WPiece:
				pieces[key]++
				if pieces[key] == s.WPieces {
					live -= fams[key]
					delete(fams, key)
					delete(pieces, key)
				}
			}
			if len(fams) > peakFams {
				peakFams = len(fams)
			}
			if live > peakBytes {
				peakBytes = live
			}
			if b != nil && b.ActBudget != nil && live > b.ActBudget[k] {
				return &BudgetError{
					Schedule: s.String(), Stage: k, OpIndex: i, Op: op,
					Live: live, Budget: b.ActBudget[k], Families: len(fams),
				}
			}
		}
		cert.PeakFamilies[k] = peakFams
		if b != nil {
			cert.PeakBytes[k] = peakBytes
		}
	}
	return nil
}
