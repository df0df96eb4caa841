package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/strategy"
)

// sweepRow is one measured configuration of the grid-search benchmark.
type sweepRow struct {
	// Path is "search" (strategy.SearchContext, the naive per-point search
	// with no dedup or memoization) or "sweep" (the streaming engine).
	Path  string `json:"path"`
	Cores int    `json:"cores"`
	// GridPointsPerSec is enumerated grid points processed per second
	// (both paths walk the identical grid, so the rates are comparable).
	GridPointsPerSec float64 `json:"grid_points_per_sec"`
	// PassSeconds is the wall time of one full multi-system pass.
	PassSeconds float64 `json:"pass_seconds"`
	Passes      int     `json:"passes"`
}

// sweepReport is the BENCH_sweep.json document: the sweep engine measured
// live against the per-point search path in the same process (so machine
// drift between runs can never contaminate the speedup), at one core and
// at every core.
type sweepReport struct {
	Note  string `json:"note"`
	Go    string `json:"go"`
	Arch  string `json:"arch"`
	Cores int    `json:"cores"`

	Model       string `json:"model"`
	GPUs        int    `json:"gpus"`
	GlobalBatch int    `json:"global_batch"`
	Systems     int    `json:"systems"`
	Prune       bool   `json:"prune"`

	// Engine counters of one sweep over the grid.
	Stats      strategy.SweepStats `json:"stats"`
	DedupRatio float64             `json:"dedup_ratio"`
	PruneRate  float64             `json:"prune_rate"`

	Rows []sweepRow `json:"rows"`

	// Speedup of the sweep engine over the per-point search path at
	// matched core counts.
	Speedup1Core    float64 `json:"speedup_1core"`
	SpeedupAllCores float64 `json:"speedup_all_cores"`
}

// runSweepBench measures multi-system grid-search throughput on the
// paper's 32-GPU point: the streaming sweep engine vs SearchContext, which
// per grid point builds mesh, memory plan and cost model fresh and runs
// generate, certify and simulate with no dedup, both at GOMAXPROCS=1 and
// at full parallelism. Before anything is timed, every system's sweep
// result is cross-checked bitwise against SearchContext.
func runSweepBench(minSeconds float64, out string) error {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(4) // 32 GPUs, the paper's full testbed point
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	sp := strategy.DefaultSpace()
	sp.Prune = true
	systems := strategy.Systems()
	ctx := context.Background()

	// Correctness gate: the engine must agree with the per-point search on
	// every system before its speed means anything.
	sw, err := strategy.Sweep(ctx, systems, m, cl, tr, sp)
	if err != nil {
		return err
	}
	for i, sys := range systems {
		want, wantErr := strategy.SearchContext(ctx, sys, m, cl, tr, sp)
		if (wantErr == nil) != (sw.Errs[i] == nil) {
			return fmt.Errorf("sweep bench: %s: error mismatch: sweep %v, search %v", sys, sw.Errs[i], wantErr)
		}
		got := sw.Results[i]
		if got.Evaluated != want.Evaluated || got.Pruned != want.Pruned || len(got.Candidates) != len(want.Candidates) {
			return fmt.Errorf("sweep bench: %s: counters diverge: sweep (%d evaluated, %d pruned, %d candidates), search (%d, %d, %d)",
				sys, got.Evaluated, got.Pruned, len(got.Candidates), want.Evaluated, want.Pruned, len(want.Candidates))
		}
		for j := range want.Candidates {
			g, r := got.Candidates[j], want.Candidates[j]
			if g.Par != r.Par || g.OOM != r.OOM ||
				math.Float64bits(g.IterTime) != math.Float64bits(r.IterTime) {
				return fmt.Errorf("sweep bench: %s: candidate %d diverges: sweep %v %.17g, search %v %.17g",
					sys, j, g.Par, g.IterTime, r.Par, r.IterTime)
			}
		}
	}

	minDur := time.Duration(minSeconds * float64(time.Second))
	timeLoop := func(run func() error) (sweepRow, error) {
		// One warm pass, outside the timed window.
		if err := run(); err != nil {
			return sweepRow{}, err
		}
		passes := 0
		t0 := time.Now()
		for time.Since(t0) < minDur {
			if err := run(); err != nil {
				return sweepRow{}, err
			}
			passes++
		}
		elapsed := time.Since(t0).Seconds()
		return sweepRow{
			GridPointsPerSec: float64(passes*sw.Stats.GridPoints) / elapsed,
			PassSeconds:      elapsed / float64(passes),
			Passes:           passes,
		}, nil
	}
	runSearch := func() error {
		for _, sys := range systems {
			if _, err := strategy.SearchContext(ctx, sys, m, cl, tr, sp); err != nil {
				return err
			}
		}
		return nil
	}
	runSweep := func() error {
		_, err := strategy.Sweep(ctx, systems, m, cl, tr, sp)
		return err
	}

	allCores := runtime.GOMAXPROCS(0)
	measure := func(cores int) (base, eng sweepRow, err error) {
		prev := runtime.GOMAXPROCS(cores)
		defer runtime.GOMAXPROCS(prev)
		if base, err = timeLoop(runSearch); err != nil {
			return
		}
		base.Path, base.Cores = "search", cores
		if eng, err = timeLoop(runSweep); err != nil {
			return
		}
		eng.Path, eng.Cores = "sweep", cores
		return
	}

	search1, sweep1, err := measure(1)
	if err != nil {
		return err
	}
	// On a single-core box the all-cores configuration is the 1-core one;
	// reuse the measurement rather than timing the same thing twice.
	searchN, sweepN := search1, sweep1
	if allCores > 1 {
		if searchN, sweepN, err = measure(allCores); err != nil {
			return err
		}
	}

	rows := []sweepRow{search1, sweep1}
	if allCores > 1 {
		rows = append(rows, searchN, sweepN)
	}
	rep := sweepReport{
		Note: "multi-system grid-search throughput, sweep engine vs strategy.SearchContext (per-point, " +
			"no dedup or memoization) measured live in the same process; regenerate with `make bench-sweep`",
		Go: runtime.Version(), Arch: runtime.GOARCH, Cores: runtime.NumCPU(),
		Model: m.Name, GPUs: cl.GPUs(), GlobalBatch: tr.GlobalBatch,
		Systems: len(systems), Prune: sp.Prune,
		Stats:      sw.Stats,
		DedupRatio: sw.Stats.DedupRatio(),
		PruneRate:  sw.Stats.PruneRate(),
		Rows:       rows,
	}
	if search1.GridPointsPerSec > 0 {
		rep.Speedup1Core = sweep1.GridPointsPerSec / search1.GridPointsPerSec
	}
	if searchN.GridPointsPerSec > 0 {
		rep.SpeedupAllCores = sweepN.GridPointsPerSec / searchN.GridPointsPerSec
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close() //nolint:errcheck // encode error wins
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Printf("sweep bench: %s, %d GPUs, gbs %d, %d systems, %d grid points (%d shapes)\n",
		rep.Model, rep.GPUs, rep.GlobalBatch, rep.Systems, sw.Stats.GridPoints, sw.Stats.Shapes)
	fmt.Printf("  engine       %d generated, %d certified, %d deduped (ratio %.2f), %d pruned (rate %.2f), %d gate-skipped\n",
		sw.Stats.Generated, sw.Stats.Certified, sw.Stats.Deduped, rep.DedupRatio, sw.Stats.Pruned, rep.PruneRate, sw.Stats.GateSkipped)
	fmt.Printf("  1 core       search %.0f points/s, sweep %.0f points/s (%.1fx)\n",
		search1.GridPointsPerSec, sweep1.GridPointsPerSec, rep.Speedup1Core)
	if allCores > 1 {
		fmt.Printf("  %d cores%s    search %.0f points/s, sweep %.0f points/s (%.1fx)\n",
			allCores, pad(allCores), searchN.GridPointsPerSec, sweepN.GridPointsPerSec, rep.SpeedupAllCores)
	}
	fmt.Printf("  report       written to %s\n", out)
	return nil
}

// pad keeps the printed core-count rows aligned for 1- vs 2-digit counts.
func pad(n int) string {
	if n < 10 {
		return " "
	}
	return ""
}
