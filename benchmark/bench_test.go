package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mepipe/internal/tensor"
)

// TestWorkloads runs every workload's set-up, its three warm-up ops, one
// timed op with its calibration unit and one traced cycle with all checks
// on, then shows that each check fires when its expected value is wrong.
func TestWorkloads(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range layerMetrics {
		declared[m.name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, rep, err := setUp(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := timeOps(w, inst, rep, 1e-9, func() (time.Duration, error) { return calibrate(), nil }); err != nil {
				t.Fatal(err)
			}
			if len(rep.LatNs) != 1 || len(rep.CalNs) != 1 {
				t.Fatalf("timed %d ops and %d calibration units, want 1 and 1", len(rep.LatNs), len(rep.CalNs))
			}
			out := filepath.Join(t.TempDir(), "trace.json")
			if err := traceRound(inst, rep, 1, out); err != nil {
				t.Fatal(err)
			}
			if rep.Failed > 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			for name := range rep.Layers {
				if !declared[name] {
					t.Errorf("workload reports undeclared layer metric %q", name)
				}
			}
			var chrome struct{ TraceEvents []chromeEvent }
			if data, err := os.ReadFile(out); err != nil {
				t.Fatal(err)
			} else if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Fatalf("chrome trace: %d events, %v", len(chrome.TraceEvents), err)
			}
			breakChecks[w.name](t, inst)
		})
	}
}

// breakChecks corrupts each check's expected value and asserts the check
// reports a failure.
var breakChecks = map[string]func(t *testing.T, inst instance){
	"plan-cold": func(t *testing.T, inst instance) {
		p := inst.(*planCold)
		p.ref.IterTimeS *= 2
		_, err := p.op(10)
		expectFail(t, "wrong reference best candidate", err)
	},
	"plan-hot": func(t *testing.T, inst instance) {
		p := inst.(*planHot)
		p.bodies[p.doc(10)] = []byte("{}")
		_, err := p.op(10)
		expectFail(t, "wrong cached body", err)
	},
	"optimize": func(t *testing.T, inst instance) {
		o := inst.(*optimize)
		seed := o.seeds[0]
		res := *o.last
		res.BestTime = res.BaseTime * 2
		expectFail(t, "best time above the preset's", o.check(seed, &res))
		res = *o.last
		_, infeasible := swapProposals(res.Schedule, o.budget)
		res.Schedule = infeasible[0]
		expectFail(t, "schedule that does not re-certify", o.check(seed, &res))
		o.best[seed] = o.last.BestTime + 1
		expectFail(t, "wrong best time for a repeated seed", o.check(seed, o.last))
		// A round whose every search failed has no schedule to time
		// proposals around: layers reports that rather than panicking.
		o.last = nil
		_, err := o.layers(newTracer(), &traceTimes{})
		expectFail(t, "round with no successful search", err)
	},
	"train": func(t *testing.T, inst instance) {
		tr := inst.(*train)
		tr.loss[10%trainBatches]++
		_, err := tr.op(10)
		expectFail(t, "wrong loss for a repeated batch", err)
		grads := tr.m.Grads()
		expectFail(t, "loss off the sequential one", compareSequential(1, 1+1e-3, grads, grads))
		off := map[string]*tensor.Matrix{}
		for name, g := range grads {
			off[name] = g.Clone()
			off[name].Data[0] += 1
		}
		expectFail(t, "gradient off the sequential one", compareSequential(1, 1, grads, off))
	},
}

func expectFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("check passed a %s", what)
	}
}

// TestMetricsMatchSpec asserts that the printed metric names and units are
// exactly those BENCHMARK.json declares, in both modes.
func TestMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", workloadNames(), names)
	}
	printed := func(res *result) map[string]string {
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back result
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		units := map[string]string{}
		for name, v := range back.Metrics {
			units[name] = v.Unit
		}
		return units
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	rep := &report{SetupS: 1, LatNs: []int64{1e6, 2e6, 3e6}, CalNs: []int64{int64(calRef)}, Attempted: 3, RSSMiB: 10}
	if got := printed(e2eResult([]*report{rep})); !maps.Equal(got, e2e) {
		t.Errorf("--trace 0 prints %v, BENCHMARK.json declares %v", got, e2e)
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if got := printed(layerResult(&report{Attempted: 1})); !maps.Equal(got, layer) {
		t.Errorf("--trace 1 prints %v, BENCHMARK.json declares %v", got, layer)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{4, 2}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 4, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
