// Command benchmark measures mepipe end to end on both of its paths: a
// planning request served by the planning server (api/v1 → serve →
// strategy → sched → verify → sim), and a pipelined training iteration run
// by the goroutine runtime on the float32 kernels. Four fixed-work
// workloads (plan-cold, plan-hot, optimize, train) check every operation's
// output. A run prints one JSON result line: end-to-end metrics, or, with
// --trace 1, per-layer metrics from a traced replay. See README.md.
//
//	sh benchmark/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
//	sh benchmark/run.sh --workload all --seed 1 --seconds 15 --repeat 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// rounds is the number of fresh child processes one invocation spreads its
// measured seconds over: each round pays its own set-up, so setup_s and
// peak_rss_mb are taken over rounds.
const rounds = 7

// warmups is the number of checked, untimed ops each round runs as part of
// its set-up.
const warmups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with --repeat)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "timed seconds per invocation at the reference speed, which fix its op count")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace written by --trace 1 (default .bench_build/trace-<workload>.json)")
	repeat := fs.Int("repeat", 0, "noise gate: run this many invocations per workload, seeds seed..seed+K-1, and fail if a spread exceeds its bound in BENCHMARK.json")
	child := fs.Int("child", -1, "internal: run round N of the workload in this process and report it on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: --seconds %g: want a positive duration\n", *seconds)
		return 2
	}
	if *repeat > 0 {
		if err := noiseGate(stdout, stderr, *name, *seed, *seconds, *repeat); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if *child >= 0 {
		rep, err := runRound(w, *seed, *seconds, *trace == 1, *traceOut, parentUnits())
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s round %d: %v\n", w.name, *child, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing round report: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := measure(stderr, w, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every --trace 0 run reports.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what one child round sends its parent.
type report struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	LatNs  []int64 `json:"lat_ns,omitempty"`
	// CalNs holds the round's calibration unit times.
	CalNs     []int64 `json:"cal_ns,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Failures holds the first few failed checks' messages.
	Failures []string           `json:"failures,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	// RSSMiB is the child's peak resident set (VmHWM).
	RSSMiB float64 `json:"rss_mib"`
}

// count records one attempted op and its check outcome.
func (r *report) count(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// measure runs one invocation: rounds fresh child processes one after
// another (or a single traced one), merged into one result.
func measure(stderr io.Writer, w *workload, seed int64, seconds float64, trace bool, traceOut string) (*result, error) {
	n := rounds
	if trace {
		n = 1
	}
	reps := make([]*report, 0, n)
	for r := 0; r < n; r++ {
		rep, err := spawnRound(w.name, seed, seconds/float64(n), r, trace, traceOut)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	logContext(stderr, w.name, seed, reps)
	if trace {
		return layerResult(reps[0]), nil
	}
	return e2eResult(reps), nil
}

// spawnRound runs one round of the workload in a fresh child process of
// this binary, running the calibration units it asks for, and waits for it
// to exit.
func spawnRound(workload string, seed int64, seconds float64, round int, trace bool, traceOut string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{
		"--child", strconv.Itoa(round), "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", "0",
	}
	if trace {
		args[len(args)-1] = "1"
		args = append(args, "--trace-out", traceOut)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := runCalibrated(cmd); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", workload, round, err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s round %d: decoding report: %w", workload, round, err)
	}
	return &rep, nil
}

// slowdown returns how much slower than the reference speed the host ran a
// round: its median calibration unit time over calRef.
func (r *report) slowdown() float64 {
	cal := make([]float64, len(r.CalNs))
	for i, ns := range r.CalNs {
		cal[i] = float64(ns)
	}
	return median(cal) / float64(calRef)
}

// e2eResult merges the rounds' samples into the end-to-end metrics. Each
// round's set-up and op times are divided by its slowdown, so the timings
// read at the reference speed.
func e2eResult(reps []*report) *result {
	res := &result{Metrics: map[string]metricValue{}}
	var lat, setup, rss []float64
	var timed float64
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		slow := r.slowdown()
		for _, ns := range r.LatNs {
			lat = append(lat, float64(ns)/slow)
			timed += float64(ns) / slow
		}
		setup = append(setup, r.SetupS/slow)
		rss = append(rss, r.RSSMiB)
	}
	res.Correct = res.Failed == 0
	slices.Sort(lat)
	var rssSum float64
	for _, x := range rss {
		rssSum += x
	}
	vals := map[string]float64{
		"setup_s":   median(setup),
		"ops_per_s": float64(len(lat)) / (timed / 1e9),
		"op_p50_ms": quantile(lat, 0.50) / 1e6,
		"op_p90_ms": quantile(lat, 0.90) / 1e6,
		// The mean, not the median: a round's peak falls in one of two
		// modes, depending on how collections meet the parallel search's
		// allocation bursts, and a median over rounds flips between them.
		"peak_rss_mb": rssSum / float64(len(rss)),
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res
}

// layerResult reports a traced round's per-layer metrics; layers that the
// workload does not run read 0.
func layerResult(rep *report) *result {
	res := &result{
		Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{rep.Layers[m.name], m.unit}
	}
	return res
}

// logContext writes the host and per-round context of a run to stderr, so
// a reader can tell host drift from a regression.
func logContext(stderr io.Writer, workload string, seed int64, reps []*report) {
	// The seconds are as measured, before scaling by the slowdown.
	type roundInfo struct {
		Round    int      `json:"round"`
		SetupS   float64  `json:"setup_s"`
		WallS    float64  `json:"wall_s"`
		TimedS   float64  `json:"timed_s"`
		Ops      int      `json:"ops"`
		CalUnits int      `json:"cal_units"`
		Slowdown float64  `json:"slowdown,omitempty"`
		RSSMiB   float64  `json:"rss_mib"`
		Failures []string `json:"failures,omitempty"`
	}
	info := struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		NProc      int         `json:"nproc"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		Go         string      `json:"go"`
		Platform   string      `json:"platform"`
		Rounds     []roundInfo `json:"rounds"`
	}{
		Workload: workload, Seed: seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	for i, r := range reps {
		var timed int64
		for _, ns := range r.LatNs {
			timed += ns
		}
		ri := roundInfo{
			Round: i, SetupS: r.SetupS, WallS: r.WallS, TimedS: float64(timed) / 1e9,
			Ops: len(r.LatNs), CalUnits: len(r.CalNs), RSSMiB: r.RSSMiB, Failures: r.Failures,
		}
		if len(r.CalNs) > 0 {
			ri.Slowdown = r.slowdown()
		}
		info.Rounds = append(info.Rounds, ri)
	}
	line, _ := json.Marshal(map[string]any{"context": info}) // plain structs always encode
	fmt.Fprintf(stderr, "%s\n", line)
}

// median returns the middle value (the mean of the two middle values for
// an even count), like Python's statistics.median.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted samples, interpolating
// linearly between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// noiseGate runs repeat invocations of each named workload (all of them
// for "all"), rotating the workload order every repetition so that each
// workload's runs spread over the whole gate, and compares each end-to-end
// metric's spread, (Q3−Q1)/median, with its bound in BENCHMARK.json.
func noiseGate(stdout, stderr io.Writer, name string, seed int64, seconds float64, repeat int) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	var ws []*workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	vals := map[string]map[string][]float64{}
	for _, w := range ws {
		vals[w.name] = map[string][]float64{}
	}
	start := time.Now()
	for k := 0; k < repeat; k++ {
		for j := range ws {
			w := ws[(j+k)%len(ws)]
			res, err := measure(stderr, w, seed+int64(k), seconds, false, "")
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed their checks", w.name, seed+int64(k), res.Failed, res.Attempted)
			}
			for _, m := range e2eMetrics {
				vals[w.name][m.name] = append(vals[w.name][m.name], res.Metrics[m.name].Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%d runs per workload, seeds %d..%d, %.0f s each, %.0f s in all\n",
		repeat, seed, seed+int64(repeat)-1, seconds, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "%-10s %-12s %14s %10s %7s\n", "workload", "metric", "median", "iqr/median", "bound")
	var over []string
	for _, w := range ws {
		for _, m := range e2eMetrics {
			xs := vals[w.name][m.name]
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := (q3 - q1) / med
			mark := ""
			if spread > bounds[m.name] {
				mark = "  OVER"
				over = append(over, w.name+"/"+m.name)
			}
			fmt.Fprintf(stdout, "%-10s %-12s %14.6g %10.4f %7.2f%s\n", w.name, m.name, med, spread, bounds[m.name], mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the checkout root, when run from benchmark/).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func loadBounds() (map[string]float64, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
