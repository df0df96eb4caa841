// Command mepipe-sched generates, inspects, saves, and reloads pipeline
// schedules as standalone artifacts: the scheduling half of MEPipe without
// the cluster model. Unit-cost simulation shows the schedule's intrinsic
// bubble structure and how close it sits to the order-free lower bound.
// A loaded schedule is certified first, or exits with the counterexample.
//
// Examples:
//
//	mepipe-sched -system mepipe -pp 4 -vp 1 -spp 2 -n 4 -order -timeline
//	mepipe-sched -system svpp -pp 4 -vp 2 -spp 2 -n 4 -f 6 -save sched.json
//	mepipe-sched -load sched.json -timeline -svg sched.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mepipe/internal/obs"
	"mepipe/internal/opt"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/timeline"
	"mepipe/internal/verify"
)

func main() {
	var (
		system   = flag.String("system", "mepipe", "scheduler: mepipe, svpp, dapple, gpipe, vpp, hanayo, terapipe, zb, zbv")
		pp       = flag.Int("pp", 4, "pipeline stages")
		vp       = flag.Int("vp", 1, "virtual pipeline size")
		spp      = flag.Int("spp", 2, "slices per micro-batch")
		n        = flag.Int("n", 4, "micro-batches")
		fKnob    = flag.Int("f", 0, "SVPP in-flight limit (0 = bubble-optimal)")
		pieces   = flag.Int("pieces", 7, "fine-grained W GEMM pieces (mepipe)")
		resched  = flag.Bool("reschedule", true, "apply Fig-6 backward rescheduling")
		order    = flag.Bool("order", false, "print the per-stage op order")
		showTL   = flag.Bool("timeline", false, "render the unit-cost ASCII timeline")
		saveTo   = flag.String("save", "", "write the schedule as JSON")
		loadFrom = flag.String("load", "", "load a schedule JSON instead of generating")
		svgTo    = flag.String("svg", "", "write an SVG timeline")
		tuneIt   = flag.Int("tune", 0, "run N rounds of the certified annealer (internal/opt) to improve the order")
		showMem  = flag.Bool("mem", false, "print each stage's peak and final retained units")
	)
	flag.Parse()

	var s *sched.Schedule
	var err error
	if *loadFrom != "" {
		f, ferr := os.Open(*loadFrom)
		fatal(ferr)
		s, err = sched.Load(f)
		fatal(err)
		fatal(f.Close())
		_, err = verify.Certify(s, verify.Options{})
		fatal(err)
	} else {
		s, err = build(*system, *pp, *vp, *spp, *n, *fKnob, *pieces, *resched)
		fatal(err)
	}

	if *tuneIt > 0 {
		or, err := opt.Optimize(context.Background(), s, sim.Unit(), opt.Options{Seed: 1, Iters: *tuneIt})
		fatal(err)
		fmt.Printf("optimized  %d rounds, %d proposals, %d accepted: makespan %.4g -> %.4g\n",
			*tuneIt, or.Proposed, or.Accepted, or.BaseTime, or.BestTime)
		s = or.Schedule
	}
	rec := obs.NewRecorder()
	res, err := sim.Run(sim.Options{Sched: s, Costs: sim.Unit(), Trace: rec})
	fatal(err)
	bound, err := sim.MakespanBound(s, sim.Unit())
	fatal(err)
	fmt.Printf("schedule   %s\n", s)
	fmt.Printf("makespan   %.4g units (lower bound %.4g, +%.1f%%)\n",
		res.IterTime, bound, 100*(res.IterTime-bound)/bound)
	fmt.Printf("bubble     %.1f%%\n", 100*res.BubbleRatio)
	fmt.Printf("peak act   %d slice-chunk families (%d/%d of a sample)\n",
		res.PeakAct, res.PeakAct, s.V*s.S*s.P)
	if *showMem {
		for k := 0; k < s.P; k++ {
			// One memory step per op, after the empty start.
			fmt.Printf("stage %d    peak %d units across %d events\n", k, res.Stages[k].PeakAct, len(s.Stages[k])+1)
		}
	}
	if *order {
		fmt.Println()
		timeline.RenderOrder(os.Stdout, s)
	}
	if *showTL {
		fmt.Println()
		fatal(timeline.ASCII{}.Export(os.Stdout, rec.Trace()))
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		fatal(err)
		fatal(s.Save(f))
		fatal(f.Close())
		fmt.Printf("saved      %s\n", *saveTo)
	}
	if *svgTo != "" {
		f, err := os.Create(*svgTo)
		fatal(err)
		fatal(timeline.SVG{}.Export(f, rec.Trace()))
		fatal(f.Close())
		fmt.Printf("svg        %s\n", *svgTo)
	}
}

func build(system string, p, v, s, n, f, pieces int, resched bool) (*sched.Schedule, error) {
	switch strings.ToLower(system) {
	case "mepipe":
		return sched.MEPipe(p, v, s, n, f, pieces, nil)
	case "svpp":
		return sched.SVPP(sched.SVPPOptions{P: p, V: v, S: s, N: n, F: f, Reschedule: resched})
	case "dapple":
		return sched.DAPPLE(p, n, nil)
	case "gpipe":
		return sched.GPipe(p, n, nil)
	case "vpp":
		return sched.VPP(p, v, n, nil)
	case "hanayo":
		return sched.Hanayo(p, n, nil)
	case "terapipe":
		return sched.TeraPipe(p, s, n, nil)
	case "zb":
		return sched.ZB1P(p, n, nil)
	case "zbv":
		return sched.ZBV(p, n, nil)
	}
	return nil, fmt.Errorf("unknown system %q", system)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-sched:", err)
		os.Exit(1)
	}
}
