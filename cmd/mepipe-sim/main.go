// Command mepipe-sim simulates one training configuration on a modelled
// cluster and reports iteration time, bubble ratio, memory, and (optionally)
// the stage timeline.
//
// The configuration comes either from flags or from a v1 request document
// (-f), the same JSON the mepipe-serve planning server consumes — a request
// is a portable artifact that means the same thing on the command line and
// over HTTP. See docs/SERVE.md for the schema.
//
// Examples:
//
//	mepipe-sim -model 13b -gbs 64 -system mepipe -pp 8 -spp 4
//	mepipe-sim -model 13b -gbs 64 -system dapple -pp 8 -cp 2 -timeline
//	mepipe-sim -f request.json -trace out.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	v1 "mepipe/api/v1"
	"mepipe/internal/obs"
	"mepipe/internal/strategy"
	"mepipe/internal/timeline"
)

func main() {
	var (
		file      = flag.String("f", "", "read a v1 request document (JSON) instead of building one from flags")
		modelName = flag.String("model", "13b", "model preset: 7b, 13b, 34b")
		gbs       = flag.Int("gbs", 64, "global batch size")
		system    = flag.String("system", "mepipe", "scheduler: mepipe, dapple, vpp, zb, zbv, terapipe, gpipe")
		pp        = flag.Int("pp", 8, "pipeline stages")
		cp        = flag.Int("cp", 1, "context-parallel size")
		spp       = flag.Int("spp", 0, "sequence pipeline size (slices); 0 picks 4 for mepipe/terapipe, 1 otherwise")
		vp        = flag.Int("vp", 0, "virtual pipeline size; 0 picks the system default")
		recompute = flag.String("recompute", "none", "activation recomputation: none, selective, full")
		gpu       = flag.String("cluster", "4090", "cluster: 4090 (8 servers x 8) or a100 (4 servers x 8)")
		showTL    = flag.Bool("timeline", false, "render the per-stage ASCII timeline")
		traceOut  = flag.String("trace", "", "write a Chrome trace JSON to this file")
	)
	flag.Parse()

	var req *v1.PlanRequest
	if *file != "" {
		f, err := os.Open(*file)
		fatal(err)
		req, err = v1.DecodePlanRequest(f)
		fatal(err)
		fatal(f.Close())
	} else {
		req = &v1.PlanRequest{
			System:   *system,
			Model:    v1.ModelSpec{Preset: *modelName},
			Cluster:  v1.ClusterSpec{Preset: *gpu},
			Training: v1.TrainingSpec{GlobalBatch: *gbs},
			Parallel: &v1.ParallelSpec{PP: *pp, CP: *cp, SPP: *spp, VP: *vp, Recompute: *recompute},
		}
	}
	plan, err := req.Compile()
	fatal(err)
	if plan.Parallel == nil {
		fatal(errors.New("request has no parallel strategy (mepipe-sim simulates one pinned strategy; use mepipe-search for grids)"))
	}
	sys, m, cl, par, tr := plan.System, plan.Model, plan.Cluster, *plan.Parallel, plan.Training

	rec := obs.NewRecorder()
	ev, err := strategy.EvaluateContext(context.Background(), sys, m, cl, par, tr, strategy.WithSink(rec))
	fatal(err)
	fmt.Printf("system     %s\n", sys)
	fmt.Printf("model      %s on %s (%d GPUs)\n", m.Name, cl.GPU.Name, cl.GPUs())
	fmt.Printf("strategy   %v, n=%d micro-batches\n", ev.Par, ev.N)
	if ev.OOM {
		fmt.Printf("result     OUT OF MEMORY: %s\n", ev.OOMWhy)
		os.Exit(2)
	}
	fmt.Printf("iteration  %.1f ms\n", ev.IterTime*1e3)
	fmt.Printf("bubble     %.1f%%\n", 100*ev.Bubble)
	fmt.Printf("peak act   %.2f GiB (budget %.2f GiB)\n", float64(ev.PeakAct)/(1<<30), float64(ev.Budget)/(1<<30))
	fmt.Printf("throughput %.1f TFLOPS/GPU, MFU %.1f%%\n",
		ev.TFLOPSPerGPU(m, tr, cl.GPUs()), 100*ev.MFU(m, tr, cl))
	if ev.F > 0 {
		fmt.Printf("variant    f=%d forwards in flight (§4.2)\n", ev.F)
	}
	trace := rec.Trace()
	bd := v1.BreakdownFrom(trace.Snapshot())
	fmt.Printf("breakdown  forward %.1f%%, backward %.1f%%, weight-grad %.1f%%, grad-sync %.1f%%, idle %.1f%%\n",
		100*bd.Forward, 100*bd.Backward, 100*bd.Weight, 100*bd.Tail, 100*bd.Idle)
	if *showTL {
		fmt.Println()
		fatal(timeline.ASCII{}.Export(os.Stdout, trace))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fatal(err)
		fatal(obs.ChromeTrace{}.Export(f, trace))
		fatal(f.Close())
		fmt.Printf("trace      written to %s (open in chrome://tracing)\n", *traceOut)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-sim:", err)
		os.Exit(1)
	}
}
