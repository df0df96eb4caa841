package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name string
	// setup builds the workload's state from the seed; the work of every
	// op is a deterministic function of the seed and the op index.
	setup func(seed int64) (instance, error)
	// opCost is about one op's time at the reference speed. It sizes a
	// round's fixed op count, so the count does not depend on how fast the
	// host runs.
	opCost time.Duration
}

// timedOps returns the number of timed ops a round of the given seconds
// runs: as many as fit at the workload's reference op cost.
func (w *workload) timedOps(seconds float64) int {
	return max(1, int(math.Round(seconds/w.opCost.Seconds())))
}

// calEvery returns the number of ops between two calibration units.
func (w *workload) calEvery() int {
	return max(1, int(math.Round(float64(calPeriod)/float64(w.opCost))))
}

// maxStretch bounds a round's timed loop at this many times its seconds,
// so that even a change that made every op several times slower finishes
// its runs in time; such a round reports the ops it ran.
const maxStretch = 6

// instance is one set-up workload inside a round.
type instance interface {
	// op runs op i, returning the duration of the timed call into mepipe
	// (request building and output checks excluded) and the first check
	// that failed.
	op(i int) (time.Duration, error)
	// replay redoes op i by calling each layer's public functions from the
	// benchmark, wrapping every call in a span of tr; a nil tr records
	// nothing. It checks that the replay reproduces the op's output.
	replay(i int, tr *tracer) error
	// layers derives the workload's per-layer metrics once a traced round
	// has ended.
	layers(tr *tracer, t *traceTimes) (map[string]float64, error)
}

// directTimer is implemented by workloads whose trace compares the served
// op with a direct call of the layer behind the server.
type directTimer interface {
	direct(i int) (time.Duration, error)
}

var workloads = []*workload{
	{"plan-cold", newPlanCold, 50 * time.Millisecond},
	{"plan-hot", newPlanHot, 25 * time.Microsecond},
	{"optimize", newOptimize, 55 * time.Millisecond},
	{"train", newTrain, 55 * time.Millisecond},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), ", "))
}

// runRound is the body of a child process: set up, warm up, then run the
// round's fixed number of timed ops, untraced with calibration units from
// unit interleaved, or traced.
func runRound(w *workload, seed int64, seconds float64, trace bool, traceOut string, unit func() (time.Duration, error)) (*report, error) {
	inst, rep, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	if trace {
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		return rep, traceRound(inst, rep, w.timedOps(seconds), traceOut)
	}
	if err := timeOps(w, inst, rep, seconds, unit); err != nil {
		return nil, err
	}
	rep.RSSMiB, err = peakRSS()
	return rep, err
}

// setUp builds the workload and runs its checked warm-up ops, recording
// the time both took.
func setUp(w *workload, seed int64) (instance, *report, error) {
	start := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	rep := &report{}
	for i := 0; i < warmups; i++ {
		_, err := inst.op(i)
		rep.count(err)
	}
	// Collect the set-up's garbage, so the collector paces the timed ops
	// from their own live heap: otherwise where a collection happened to
	// fall during set-up moves peak_rss_mb by a third.
	runtime.GC()
	rep.SetupS = time.Since(start).Seconds()
	return inst, rep, nil
}

// timeOps runs the round's timed ops, with a calibration unit before the
// first and then every calEvery ops. Op indices continue from the ops the
// round has attempted so far.
func timeOps(w *workload, inst instance, rep *report, seconds float64, unit func() (time.Duration, error)) error {
	n, every, first := w.timedOps(seconds), w.calEvery(), rep.Attempted
	loop := time.Now()
	limit := time.Duration(maxStretch * seconds * float64(time.Second))
	for k := 0; k < n && (k == 0 || time.Since(loop) < limit); k++ {
		if k%every == 0 {
			d, err := unit()
			if err != nil {
				return err
			}
			rep.CalNs = append(rep.CalNs, d.Nanoseconds())
		}
		d, err := inst.op(first + k)
		rep.LatNs = append(rep.LatNs, d.Nanoseconds())
		rep.count(err)
	}
	rep.WallS = time.Since(loop).Seconds()
	return nil
}

// peakRSS returns this process's peak resident set size in MiB (VmHWM).
// The child reads its own: the rusage a parent gets for a child it
// started also counts the parent's memory at the fork.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// traceTimes holds what a traced round measured besides the spans.
type traceTimes struct {
	op, direct, replay, traced []time.Duration
	allocs                     allocStats
}

// traceRound cycles through the served op, the direct call (where the
// workload has one), an untraced replay and a traced replay of the same op
// index, making about n calls in all. The four start in a rotating order,
// so drift of the host's speed and the garbage each call leaves for the
// next hit all of them alike. Then it derives the per-layer metrics and
// writes the spans as a Chrome trace.
func traceRound(inst instance, rep *report, n int, traceOut string) error {
	tr := newTracer()
	var t traceTimes
	var i int
	var errs []error
	timed := func(into *[]time.Duration, fn func() error) func() {
		return func() {
			start := time.Now()
			errs = append(errs, fn())
			*into = append(*into, time.Since(start))
		}
	}
	steps := []func(){
		func() {
			before := readAllocs()
			d, err := inst.op(i)
			t.allocs.add(before, readAllocs())
			t.op = append(t.op, d)
			errs = append(errs, err)
		},
		timed(&t.replay, func() error { return inst.replay(i, nil) }),
		timed(&t.traced, func() error { return inst.replay(i, tr) }),
	}
	if dt, ok := inst.(directTimer); ok {
		steps = append(steps, func() {
			d, err := dt.direct(i)
			t.direct = append(t.direct, d)
			errs = append(errs, err)
		})
	}
	loop := time.Now()
	first := rep.Attempted
	for i = first; i < first+max(1, n/len(steps)); i++ {
		errs = errs[:0]
		for k := range steps {
			steps[(i+k)%len(steps)]()
		}
		rep.count(errors.Join(errs...))
	}
	rep.WallS = time.Since(loop).Seconds()
	var err error
	if rep.Layers, err = inst.layers(tr, &t); err != nil {
		return fmt.Errorf("measuring layers: %w", err)
	}
	rep.Layers["go.allocs_per_op"] = t.allocs.perOp(t.allocs.objects)
	rep.Layers["go.alloc_kb_per_op"] = t.allocs.perOp(t.allocs.bytes) / 1024
	rep.Layers["go.gc_cpu_share"] = t.allocs.gcCPU / t.allocs.totalCPU
	rep.Layers["replay.coverage"] = tr.coverage()
	rep.Layers["trace.overhead"] = pairedMedian(t.traced, t.replay, func(a, b float64) float64 { return a/b - 1 })
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return tr.writeChrome(traceOut)
}

// layerMetrics are the per-layer metrics every --trace 1 run reports, in
// the order BENCHMARK.json lists them. README.md says which end-to-end
// metric each one should move, on which workload.
var layerMetrics = []metricDef{
	{"v1.decode_us", "us"},
	{"v1.normalize_us", "us"},
	{"v1.key_us", "us"},
	{"v1.encode_us", "us"},
	{"serve.hit_us", "us"},
	{"serve.resp_kb", "KiB"},
	{"serve.hit_ratio", "ratio"},
	{"serve.overhead_ms", "ms"},
	{"plan.build_ms", "ms"},
	{"sched.generate_ms", "ms"},
	{"sched.ops_generated", "count"},
	{"strategy.grid_points", "count"},
	{"strategy.feasible_ratio", "ratio"},
	{"strategy.parallel_speedup", "x"},
	{"verify.certify_ms", "ms"},
	{"verify.certify_us", "us"},
	{"sim.evaluate_ms", "ms"},
	{"sim.session_eval_us", "us"},
	{"opt.proposed", "count"},
	{"opt.evaluated", "count"},
	{"opt.accept_ratio", "ratio"},
	{"opt.infeasible_ratio", "ratio"},
	{"opt.self_share_est", "ratio"},
	{"tensor.gemm_gflop", "GFLOP"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.gemm_share_est", "ratio"},
	{"pipeline.forward_ms", "ms"},
	{"pipeline.backward_ms", "ms"},
	{"pipeline.weight_ms", "ms"},
	{"pipeline.stall_dep_ms", "ms"},
	{"pipeline.stall_comm_ms", "ms"},
	{"pipeline.bubble", "ratio"},
	{"pipeline.comm_kb", "KiB"},
	{"pipeline.comm_msgs", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cpu_share", "ratio"},
	{"replay.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// allocStats accumulates the Go runtime's allocation and CPU counters over
// the served ops of a traced round.
type allocStats struct {
	ops             int
	objects, bytes  float64
	gcCPU, totalCPU float64
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readAllocs returns the current values of allocSamples.
func readAllocs() [4]float64 {
	s := slices.Clone(allocSamples)
	metrics.Read(s)
	var out [4]float64
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

func (a *allocStats) add(before, after [4]float64) {
	a.ops++
	a.objects += after[0] - before[0]
	a.bytes += after[1] - before[1]
	a.gcCPU += after[2] - before[2]
	a.totalCPU += after[3] - before[3]
}

func (a *allocStats) perOp(total float64) float64 { return total / float64(a.ops) }

// pairedMedian returns the median of f over the pairs (a[i], b[i]) of
// calls made in the same cycle, so the host's drift between cycles cancels.
func pairedMedian(a, b []time.Duration, f func(a, b float64) float64) float64 {
	xs := make([]float64, len(a))
	for i := range a {
		xs[i] = f(float64(a[i]), float64(b[i]))
	}
	return median(xs)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return median(xs)
}
