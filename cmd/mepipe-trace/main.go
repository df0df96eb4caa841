// Command mepipe-trace records the structured event trace of one simulated
// training iteration — op spans, cross-stage communication, activation
// memory traffic, stalls by cause, and the §5 dynamic engine's drain and
// budget events — and exports it as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing) or JSONL.
//
// Examples:
//
//	mepipe-trace -o trace.json
//	mepipe-trace -model 13b -gbs 64 -pp 8 -spp 4 -o trace.json
//	mepipe-trace -system dapple -format jsonl -o trace.jsonl
//
// The flags compile through the api/v1 request schema, exactly like
// mepipe-sim and POST /v1/trace, and the run goes through the public
// mepipe façade.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mepipe"
	v1 "mepipe/api/v1"
)

func main() {
	var (
		modelName = flag.String("model", "7b", "model preset: 7b, 13b, 34b")
		system    = flag.String("system", "mepipe", "scheduler: mepipe, dapple, vpp, zb, zbv, terapipe, gpipe")
		gbs       = flag.Int("gbs", 64, "global batch size")
		pp        = flag.Int("pp", 8, "pipeline stages")
		cp        = flag.Int("cp", 1, "context-parallel size")
		spp       = flag.Int("spp", 0, "sequence pipeline size (slices); 0 picks 4 for mepipe/terapipe, 1 otherwise")
		vp        = flag.Int("vp", 0, "virtual pipeline size; 0 picks the system default")
		gpu       = flag.String("cluster", "4090", "cluster: 4090 (8 servers x 8) or a100 (4 servers x 8)")
		out       = flag.String("o", "", "output file (default stdout)")
		format    = flag.String("format", "chrome", "trace format: chrome, jsonl")
	)
	flag.Parse()

	kind := strings.ToLower(*format)
	var exp mepipe.Exporter
	switch kind {
	case "chrome":
		exp = mepipe.ChromeTrace{}
	case "jsonl":
		exp = mepipe.JSONLTrace{}
	default:
		fatal(fmt.Errorf("unknown format %q (want chrome or jsonl)", *format))
	}
	req := &v1.TraceRequest{
		PlanRequest: v1.PlanRequest{
			System:   *system,
			Model:    v1.ModelSpec{Preset: *modelName},
			Cluster:  v1.ClusterSpec{Preset: *gpu},
			Training: v1.TrainingSpec{GlobalBatch: *gbs},
			Parallel: &v1.ParallelSpec{PP: *pp, CP: *cp, SPP: *spp, VP: *vp},
		},
		Format: kind,
	}
	plan, err := req.Compile()
	fatal(err)
	sys, m, cl := plan.System, plan.Model, plan.Cluster

	rec := mepipe.NewRecorder()
	ev, err := mepipe.Evaluate(context.Background(), sys, m, cl, *plan.Parallel, plan.Training, mepipe.WithTrace(rec))
	fatal(err)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		defer f.Close()
		w = f
	}
	trace := rec.Trace()
	fatal(exp.Export(w, trace))

	// Human-readable summary on stderr so the trace stream stays clean.
	fmt.Fprintf(os.Stderr, "%s %s on %s: %v, n=%d, %d events\n",
		sys, m.Name, cl.GPU.Name, ev.Par, ev.N, rec.Len())
	if ev.OOM {
		fmt.Fprintf(os.Stderr, "OUT OF MEMORY: %s\n", ev.OOMWhy)
	}
	for _, line := range trace.Snapshot().Summary() {
		fmt.Fprintln(os.Stderr, "  "+line)
	}
	if *out != "" {
		dest := "chrome://tracing or https://ui.perfetto.dev"
		if kind == "jsonl" {
			dest = "jq or any line-oriented tool"
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in %s)\n", *out, dest)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-trace:", err)
		os.Exit(1)
	}
}
