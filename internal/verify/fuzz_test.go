package verify

import (
	"errors"
	"testing"

	"mepipe/internal/sched"
)

// FuzzCertifyDenseMatchesGraph is the differential gate behind the dense
// Kahn fast path: the labelled map graph (buildGraph, edges, residual) is
// the oracle. For fused, split and wave presets perturbed by random
// within-stage swaps, whenever kahnDense handles a schedule its acyclic
// verdict and node/edge statistics must equal the graph's, and Certify
// must report a *CycleError exactly when the graph has a residual.
// Byte layout:
//
//	[0..3]  preset, P, N, S
//	[4..]   swap stream, 3 bytes per swap: stage, i, j
func FuzzCertifyDenseMatchesGraph(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 0, 5, 0, 3, 4})
	f.Add([]byte{2, 2, 2, 0, 0, 7, 2, 1, 1, 9})
	f.Add([]byte{3, 1, 0, 1, 2, 4, 0, 3, 8, 8})
	f.Add([]byte{4, 0, 2, 0, 1, 3, 6, 0, 0, 1})
	f.Add([]byte{5, 2, 1, 1, 3, 11, 2, 2, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		p := 2 + int(data[1]%3)
		n := 2 + int(data[2]%3)
		sl := 1 + int(data[3]%2)
		var s *sched.Schedule
		var err error
		switch data[0] % 6 {
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
			t.Skip()
		}
		fuzzCompare(t, s)
		for i := 4; i+2 < len(data); i += 3 {
			ops := s.Stages[int(data[i])%p]
			a, b := int(data[i+1])%len(ops), int(data[i+2])%len(ops)
			ops[a], ops[b] = ops[b], ops[a]
			fuzzCompare(t, s)
		}
	})
}

// fuzzCompare checks the dense path against the map graph on one order.
func fuzzCompare(t *testing.T, s *sched.Schedule) {
	t.Helper()
	var dense Certificate
	ok, handled, err := kahnDense(s, &dense)
	if err != nil {
		t.Fatalf("kahnDense: %v", err)
	}
	if !handled {
		return
	}
	g, err := buildGraph(s)
	if err != nil {
		t.Fatalf("dense path handled a schedule the graph rejects: %v", err)
	}
	edges, cross := g.edges()
	if dense.Nodes != len(g.nodes) || dense.Edges != edges || dense.CrossEdges != cross {
		t.Fatalf("statistics differ: dense %d nodes, %d edges (%d cross); graph %d, %d (%d)",
			dense.Nodes, dense.Edges, dense.CrossEdges, len(g.nodes), edges, cross)
	}
	acyclic := g.residual() == nil
	if ok != acyclic {
		t.Fatalf("verdicts differ: dense acyclic=%v, graph acyclic=%v", ok, acyclic)
	}
	_, err = Certify(s, Options{})
	var ce *CycleError
	if (err == nil) != acyclic || (err != nil && !errors.As(err, &ce)) {
		t.Fatalf("Certify returned %v on a graph with acyclic=%v", err, acyclic)
	}
}
