// Command mepipe-bench regenerates the paper's evaluation tables and
// figures from the reproduction's models and simulator.
//
// Examples:
//
//	mepipe-bench                # every experiment
//	mepipe-bench -exp fig8      # one experiment
//	mepipe-bench -list          # what exists
//	mepipe-bench -opt           # replay the discovered-schedule artifact, write BENCH_opt.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mepipe/internal/bench"
	"mepipe/internal/opt"
	"mepipe/internal/sim"
)

func main() {
	var (
		exp      = flag.String("exp", "", "run a single experiment by id (see -list)")
		list     = flag.Bool("list", false, "list available experiments")
		format   = flag.String("format", "text", "output format: text or csv")
		optBench = flag.Bool("opt", false, "replay the checked-in discovered-schedule artifact's optimization and write a throughput report")
		optIters = flag.Int("opt-iters", 0, "override the artifact's annealing rounds in -opt mode (0 = the recorded count)")
		optOut   = flag.String("opt-out", "BENCH_opt.json", "report file written by -opt")
	)
	flag.Parse()

	if *optBench {
		if err := runOptBench(*optIters, *optOut); err != nil {
			fmt.Fprintln(os.Stderr, "mepipe-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}
	exps := bench.Experiments()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "mepipe-bench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		t0 := time.Now()
		r, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mepipe-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		var werr error
		switch *format {
		case "text":
			werr = r.WriteText(os.Stdout)
		case "csv":
			fmt.Printf("# %s: %s\n", r.ID, r.Title)
			werr = r.WriteCSV(os.Stdout)
			fmt.Println()
		default:
			werr = fmt.Errorf("unknown format %q", *format)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mepipe-bench:", werr)
			os.Exit(1)
		}
		if *format == "text" {
			fmt.Printf("  (generated in %v)\n\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}

// optReport is the BENCH_opt.json document: the artifact's point, the
// preset baseline vs the schedule the replayed search discovered, and the
// search throughput on this machine, with the core count it ran on and
// how many workers evaluated each round.
type optReport struct {
	Note string `json:"note"`
	P    int    `json:"p"`
	V    int    `json:"v"`
	S    int    `json:"s"`
	N    int    `json:"n"`

	Preset           string  `json:"preset"`
	PresetIterTime   float64 `json:"preset_iter_time"`
	PresetBubble     float64 `json:"preset_bubble"`
	StartedFrom      string  `json:"started_from"`
	BestIterTime     float64 `json:"best_iter_time"`
	BestBubble       float64 `json:"best_bubble"`
	Gain             float64 `json:"gain"`
	ArtifactIterTime float64 `json:"artifact_iter_time"`

	Seed      int64 `json:"seed"`
	Iters     int   `json:"iters"`
	Proposals int   `json:"proposals"`

	Proposed         int     `json:"proposed"`
	Infeasible       int     `json:"infeasible"`
	Evaluated        int     `json:"evaluated"`
	Accepted         int     `json:"accepted"`
	Improved         int     `json:"improved"`
	AcceptRate       float64 `json:"accept_rate"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	ElapsedS         float64 `json:"elapsed_s"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Workers          int     `json:"workers"`
}

// runOptBench replays the checked-in discovered-schedule artifact's
// optimization — same point, same seed — and measures the search's
// throughput on this machine. With the artifact's full round count the
// replay rediscovers the recorded schedule exactly (the search is
// deterministic); -opt-iters shortens it for smoke runs.
func runOptBench(iters int, out string) error {
	a, err := opt.Discovered()
	if err != nil {
		return err
	}
	best, presetSched, err := a.BestPreset()
	if err != nil {
		return err
	}
	o := opt.Options{
		Seed:      a.Opt.Seed,
		Iters:     a.Opt.Iters,
		Proposals: a.Opt.Proposals,
		Budget:    a.Budget(),
	}
	if iters > 0 {
		o.Iters = iters
	}
	t0 := time.Now()
	res, err := opt.Optimize(context.Background(), presetSched, a.Costs(), o)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0).Seconds()

	presetRun, err := sim.Run(sim.Options{Sched: presetSched, Costs: a.Costs()})
	if err != nil {
		return err
	}
	bestRun, err := sim.Run(sim.Options{Sched: res.Schedule, Costs: a.Costs()})
	if err != nil {
		return err
	}

	rep := optReport{
		Note: a.Note, P: a.P, V: a.V, S: a.S, N: a.N,
		Preset:           best.Name,
		PresetIterTime:   res.BaseTime,
		PresetBubble:     presetRun.BubbleRatio,
		StartedFrom:      "preset",
		BestIterTime:     res.BestTime,
		BestBubble:       bestRun.BubbleRatio,
		Gain:             res.Gain(),
		ArtifactIterTime: a.Opt.IterTime,
		Seed:             o.Seed, Iters: o.Iters, Proposals: o.Proposals,
		Proposed: res.Proposed, Infeasible: res.Infeasible,
		Evaluated: res.Evaluated, Accepted: res.Accepted, Improved: res.Improved,
		ElapsedS: elapsed, GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: res.Workers,
	}
	if o.Iters > 0 {
		rep.AcceptRate = float64(res.Accepted) / float64(o.Iters)
	}
	if elapsed > 0 {
		rep.CandidatesPerSec = float64(res.Proposed) / elapsed
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

	fmt.Printf("opt replay: P=%d V=%d S=%d N=%d, %d rounds x %d proposals, seed %d\n",
		rep.P, rep.V, rep.S, rep.N, rep.Iters, rep.Proposals, rep.Seed)
	fmt.Printf("  preset     %s: %.3f (bubble %.1f%%)\n", rep.Preset, rep.PresetIterTime, 100*rep.PresetBubble)
	fmt.Printf("  discovered %.3f (bubble %.1f%%, %.2f%% faster)\n",
		rep.BestIterTime, 100*rep.BestBubble, 100*rep.Gain)
	fmt.Printf("  search     %d proposed (%d infeasible), %.0f candidates/s, accept rate %.2f\n",
		rep.Proposed, rep.Infeasible, rep.CandidatesPerSec, rep.AcceptRate)
	fmt.Printf("  workers    %d (GOMAXPROCS %d)\n", rep.Workers, rep.GOMAXPROCS)
	fmt.Printf("  report     written to %s\n", out)
	return nil
}
