package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// opID strips timing from an op event, leaving schedule identity.
type opID struct {
	kind                sched.Kind
	micro, slice, chunk int
	piece               int
}

func ids(evs []obs.Event) []opID {
	out := make([]opID, 0, len(evs))
	for _, e := range evs {
		out = append(out, opID{e.Op.Kind, e.Op.Micro, e.Op.Slice, e.Op.Chunk, e.Op.Piece})
	}
	return out
}

// TestSimAndRuntimeEmitSameOpEvents runs each schedule through both
// engines with a trace attached and checks they emit the same per-stage
// op-event sequences in the same dependency order, and the same set of
// cross-stage communication edges — the two tracing paths describe one
// execution. The runtime's transfers number exactly the certifier's
// cross-stage edges: one 1-buffered channel per edge, the premise of the
// deadlock-freedom argument. ZBV's V-shape hands a tensor off on the
// same stage, and the reversed case runs each family's pieces out of
// index order.
func TestSimAndRuntimeEmitSameOpEvents(t *testing.T) {
	builds := []struct {
		name string
		s    func() (*sched.Schedule, error)
	}{
		{"svpp", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 4, Reschedule: true})
		}},
		{"vpp", func() (*sched.Schedule, error) { return sched.VPP(4, 2, 4, nil) }},
		{"zbv", func() (*sched.Schedule, error) { return sched.ZBV(4, 3, nil) }},
		{"mepipe", func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 2, 3, 0, 5, nil) }},
		{"mepipe-pieces-reversed", mepipeReversed},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.s()
			if err != nil {
				t.Fatal(err)
			}
			cert, err := verify.Certify(s, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			simTr, runTr := traceBoth(t, s)
			if simTr.Stages != runTr.Stages {
				t.Fatalf("stage counts differ: sim %d, runtime %d", simTr.Stages, runTr.Stages)
			}
			for k := 0; k < simTr.Stages; k++ {
				simOps, runOps := ids(simTr.OpSpans(k)), ids(runTr.OpSpans(k))
				if len(simOps) != len(runOps) {
					t.Fatalf("stage %d: sim emitted %d op events, runtime %d", k, len(simOps), len(runOps))
				}
				for i := range simOps {
					if simOps[i] != runOps[i] {
						t.Errorf("stage %d op %d: sim %+v, runtime %+v", k, i, simOps[i], runOps[i])
					}
				}
			}

			// Cross-stage comm edges: same (consumer stage, producer stage, op).
			simComm, runComm := commSet(simTr), commSet(runTr)
			if len(simComm) != len(runComm) {
				t.Fatalf("comm edge counts differ: sim %d, runtime %d", len(simComm), len(runComm))
			}
			for id, n := range simComm {
				if runComm[id] != n {
					t.Errorf("comm edge %+v: sim %d, runtime %d", id, n, runComm[id])
				}
			}
			transfers := 0
			for _, n := range runComm {
				transfers += n
			}
			if transfers != cert.CrossEdges {
				t.Errorf("runtime made %d cross-stage transfers, certifier counts %d cross-stage edges", transfers, cert.CrossEdges)
			}
		})
	}
}

// traceBoth runs s through the simulator under unit costs and through the
// runtime, each with a trace attached, and returns the two traces.
func traceBoth(t *testing.T, s *sched.Schedule) (simTr, runTr *obs.Trace) {
	t.Helper()
	simRec := obs.NewRecorder()
	if _, err := sim.Run(sim.Options{Sched: s, Costs: sim.Unit(), Trace: simRec}); err != nil {
		t.Fatal(err)
	}
	c := cfg()
	rng := rand.New(rand.NewSource(7))
	m, err := nn.NewModel(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, s, batch(rng, c, s.N))
	if err != nil {
		t.Fatal(err)
	}
	runRec := obs.NewRecorder()
	if _, err := r.WithTrace(runRec).Run(); err != nil {
		t.Fatal(err)
	}
	return simRec.Trace(), runRec.Trace()
}

// commID identifies a cross-stage transfer: consumer stage, producer
// stage and consumer op.
type commID struct {
	stage, from int
	op          opID
}

// commSet counts a trace's comm events by commID.
func commSet(tr *obs.Trace) map[commID]int {
	out := map[commID]int{}
	for _, e := range tr.Events {
		if e.Kind == obs.EvComm {
			out[commID{e.Stage, e.From, opID{e.Op.Kind, e.Op.Micro, e.Op.Slice, e.Op.Chunk, e.Op.Piece}}]++
		}
	}
	return out
}

// TestRunContextCancelled: cancelling mid-run unwinds every stage — even
// ones blocked on cross-stage receives — returns an error wrapping
// errs.ErrCancelled, and leaves no goroutines behind.
func TestRunContextCancelled(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	rng := rand.New(rand.NewSource(3))
	m, err := nn.NewModel(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, s, batch(rng, c, s.N))
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every stage sees a dead context at its first op or receive
	if _, err := r.RunContext(ctx); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("RunContext = %v, want ErrCancelled", err)
	}
	waitForGoroutines(t, before)
}

func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}
