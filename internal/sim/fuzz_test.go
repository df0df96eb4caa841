package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// FuzzIncrementalEquivalence is the differential gate behind the Session
// fast path: for arbitrary shapes, cost models, budgets, modes, and move
// sequences, the incremental evaluation must be bitwise-identical to a
// fresh reference replay (runRef) — including agreeing on which orders
// deadlock and with what error class. An untraced session checks the
// results; unless the header turns tracing off, a traced session also
// records into an obs.Recorder and every step's recording must DeepEqual
// the runner's: each op's start and end, and every other event, dynamic
// drain and budget instants and tails included. Byte layout:
//
//	[0..5]  shape + mode header (P, S, N, split/pieces/dynamic/trace-off,
//	        budget/tail/comm/zero-weight/reschedule/trace flags, budget
//	        level); the trace flag overrides trace-off
//	[6..]   move stream, 3 bytes per move: stage, from, to
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0x01, 0x00, 4, 0, 1, 2, 1, 5, 0})
	f.Add([]byte{1, 0, 1, 0x03, 0x03, 3, 0, 3, 9, 1, 2, 2, 0, 0, 7})
	f.Add([]byte{2, 1, 0, 0x07, 0x05, 2, 1, 4, 4, 0, 0, 11, 1, 8, 2})
	f.Add([]byte{0, 1, 2, 0x0f, 0x0f, 6, 0, 1, 1, 2, 3, 4, 1, 0, 2})
	f.Add([]byte{1, 1, 1, 0x05, 0x0a, 5, 3, 2, 1, 0, 9, 9, 2, 4, 4})
	f.Add([]byte{1, 1, 0, 0x01, 0x26, 4, 0, 1, 2, 1, 5, 0, 2, 3, 1})
	f.Add([]byte{2, 1, 1, 0x0f, 0x25, 2, 1, 4, 4, 0, 0, 11, 1, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			t.Skip()
		}
		p := 2 + int(data[0]%3)
		sl := 1 + int(data[1]%2)
		n := 2 + int(data[2]%3)
		split := data[3]&1 != 0
		pieces := 0
		if split && data[3]&2 != 0 {
			pieces = 2
		}
		dynamicW := split && data[3]&4 != 0
		useBudget := data[4]&1 != 0
		useTail := data[4]&2 != 0
		traced := data[3]&8 == 0 || data[4]&32 != 0
		est := sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.5}
		if data[4]&4 != 0 {
			est.Comm = 0.25
		}
		if data[4]&8 != 0 {
			// Zero-weight ops stress the deadlock check: a re-solve that
			// trusted finish times alone could converge through a 0-cost
			// cycle.
			est.W, est.WPiece = 0, 0
		}
		sc, err := sched.SVPP(sched.SVPPOptions{
			P: p, V: 1, S: sl, N: n,
			Split: split, FineGrainedW: pieces,
			Reschedule: data[4]&16 != 0, Est: est,
		})
		if err != nil {
			t.Skip()
		}
		costs := UniformCosts{Est: est, Act: 3, Grad: 1}
		opt := Options{Costs: costs, DynamicW: dynamicW}
		if useBudget {
			lvl := int64(2 + data[5]%14)
			b := make([]int64, p)
			for i := range b {
				b[i] = lvl
			}
			opt.ActBudget = b
		}
		if useTail {
			opt.TailTime = func(k int) float64 { return 0.5 * float64(k+1) }
		}
		opt.Sched = sc
		pair := newSessionPair(t, opt, traced)
		cur := sessClone(sc)
		for i := 6; i+2 < len(data); i += 3 {
			k := int(data[i]) % p
			ops := cur.Stages[k]
			if len(ops) < 2 {
				continue
			}
			from := int(data[i+1]) % len(ops)
			to := int(data[i+2]) % len(ops)
			if from == to {
				// Degenerate displace; swap adjacents instead so every
				// step perturbs something.
				to = (from + 1) % len(ops)
			}
			sessDisplace(ops, from, to)
			fullErr, incErr := pair.eval(t, opt, cur, fmt.Sprintf("move %d", i))
			if errors.Is(fullErr, errs.ErrUncertified) != errors.Is(incErr, errs.ErrUncertified) ||
				errors.Is(fullErr, errs.ErrIncompatible) != errors.Is(incErr, errs.ErrIncompatible) {
				t.Fatalf("move %d: error classes differ: full %v, incremental %v", i, fullErr, incErr)
			}
		}
	})
}

// fuzzSameTrace requires DeepEqual recordings, naming the first differing
// event when they are not.
func fuzzSameTrace(t *testing.T, full, inc *obs.Trace) {
	t.Helper()
	if reflect.DeepEqual(full, inc) {
		return
	}
	for i := 0; i < len(full.Events) && i < len(inc.Events); i++ {
		if full.Events[i] != inc.Events[i] {
			t.Fatalf("trace event %d: full %+v, incremental %+v", i, full.Events[i], inc.Events[i])
		}
	}
	t.Fatalf("traces differ: full %d events (makespan %v, bubble %v), incremental %d (makespan %v, bubble %v)",
		len(full.Events), full.Makespan, full.Bubble, len(inc.Events), inc.Makespan, inc.Bubble)
}
