// Command mepipe-search grid-searches the parallel-strategy space (§7.3)
// for one or all scheduling systems and prints the ranked candidates.
//
// With -f it searches exactly what a v1 request document describes — the
// same JSON POST /v1/search consumes on the mepipe-serve planning server,
// including a bounded search space. See docs/SERVE.md for the schema.
//
// With -optimize it additionally anneals the winning candidate's preset
// schedule with the internal/opt local search (single system only) and
// reports what the search discovered; -opt-out saves the discovered
// schedule as a portable JSON artifact.
//
// Examples:
//
//	mepipe-search -model 13b -gbs 64
//	mepipe-search -model 34b -gbs 128 -system mepipe -top 10
//	mepipe-search -f request.json
//	mepipe-search -model 7b -gbs 32 -system mepipe -optimize -opt-out best.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	v1 "mepipe/api/v1"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/opt"
	"mepipe/internal/strategy"
)

func main() {
	var (
		file      = flag.String("f", "", "read a v1 request document (JSON) instead of building one from flags")
		modelName = flag.String("model", "13b", "model preset: 7b, 13b, 34b")
		gbs       = flag.Int("gbs", 64, "global batch size")
		system    = flag.String("system", "all", "system to search, or 'all'")
		gpu       = flag.String("cluster", "4090", "cluster: 4090 or a100")
		top       = flag.Int("top", 3, "candidates to print per system")
		optimize  = flag.Bool("optimize", false, "anneal the best candidate's schedule after ranking (single system only)")
		optSeed   = flag.Int64("opt-seed", v1.DefaultOptSeed, "optimizer random seed")
		optIters  = flag.Int("opt-iters", v1.DefaultOptIters, "optimizer annealing rounds")
		optOut    = flag.String("opt-out", "", "write the discovered schedule (JSON) to this file")
	)
	flag.Parse()

	var (
		m       config.Model
		cl      cluster.Cluster
		tr      config.Training
		space   strategy.SearchSpace
		systems []strategy.System
	)
	if *file != "" {
		f, err := os.Open(*file)
		fatal(err)
		req, err := v1.DecodePlanRequest(f)
		fatal(err)
		fatal(f.Close())
		plan, err := req.Compile()
		fatal(err)
		m, cl, tr, space = plan.Model, plan.Cluster, plan.Training, plan.Space
		systems = []strategy.System{plan.System}
		if plan.Top > 0 {
			*top = plan.Top
		}
	} else {
		var err error
		m, err = config.ModelByName(*modelName)
		fatal(err)
		cl = cluster.RTX4090Cluster(8)
		if strings.EqualFold(*gpu, "a100") {
			cl = cluster.A100Cluster(4)
		}
		tr = config.Training{GlobalBatch: *gbs, MicroBatch: 1}
		space = strategy.DefaultSpace()
		systems = strategy.Systems()
		if !strings.EqualFold(*system, "all") {
			sys, err := v1.SystemByName(*system)
			fatal(err)
			systems = []strategy.System{sys}
		}
	}

	// A pruned search keeps exact only the ranks it is told it will print.
	space.Top = int32(min(*top, math.MaxInt32))

	if *optimize && len(systems) != 1 {
		fatal(fmt.Errorf("-optimize needs a single system (got -system %s)", *system))
	}

	// One sweep over all requested systems: their grid points share one
	// worker pool, and the results are identical to per-system Search
	// calls.
	sw, err := strategy.Sweep(context.Background(), systems, m, cl, tr, space)
	fatal(err)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\trank\tstrategy\tn\titeration\tbubble\tpeak act\tstatus")
	var best *strategy.Eval
	for i, sys := range systems {
		res := sw.Results[i]
		if err := sw.Errs[i]; err != nil && len(res.Candidates) == 0 {
			fmt.Fprintf(w, "%s\t-\t%v\t\t\t\t\t\n", sys, err)
			continue
		}
		best = res.Best()
		shown := 0
		for _, c := range res.Candidates {
			if shown >= *top {
				break
			}
			shown++
			status := "ok"
			iter := fmt.Sprintf("%.1f ms", c.IterTime*1e3)
			if c.OOM {
				status = "OOM: " + c.OOMWhy
				iter = "-"
			}
			fmt.Fprintf(w, "%s\t#%d\t%v\t%d\t%s\t%.1f%%\t%.2f GiB\t%s\n",
				sys, shown, c.Par, c.N, iter, 100*c.Bubble, float64(c.PeakAct)/(1<<30), status)
		}
	}
	fatal(w.Flush())

	if *optimize {
		if best == nil {
			fatal(fmt.Errorf("-optimize: no feasible candidate to optimize"))
		}
		fatal(runOptimize(systems[0], m, cl, best.Par, tr, *optSeed, *optIters, *optOut))
	}
}

// runOptimize anneals the winning candidate's preset schedule and prints
// what the local search discovered.
func runOptimize(sys strategy.System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, seed int64, iters int, out string) error {
	res, err := strategy.OptimizeContext(context.Background(), sys, m, cl, par, tr, opt.Options{Seed: seed, Iters: iters})
	if err != nil {
		return err
	}
	r := res.Opt
	fmt.Printf("\noptimize %s %v (seed %d, %d rounds):\n", sys, par, seed, iters)
	fmt.Printf("  preset     %.3f ms\n", r.BaseTime*1e3)
	fmt.Printf("  discovered %.3f ms (%.2f%% faster)\n", r.BestTime*1e3, 100*r.Gain())
	fmt.Printf("  search     %d proposed, %d infeasible, %d evaluated, %d accepted, %d improvements\n",
		r.Proposed, r.Infeasible, r.Evaluated, r.Accepted, r.Improved)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := r.Schedule.Save(f); err != nil {
			f.Close() //nolint:errcheck // save error wins
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  schedule   written to %s\n", out)
	}
	return nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-search:", err)
		os.Exit(1)
	}
}
