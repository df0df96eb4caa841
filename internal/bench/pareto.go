package bench

import (
	"fmt"
	"sort"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

func init() {
	register("pareto", "memory/time Pareto frontier of SVPP variants at real scale (Fig 5 writ large)", Pareto)
}

// Pareto sweeps the §4.2 variant knob f across its whole range for the
// Table 5 MEPipe configuration and reports the memory/time frontier — the
// quantitative version of Fig 5's qualitative trade-off: every point is a
// deployable schedule for a different memory budget.
func Pareto() (*Report, error) {
	plan, err := mepipeSetup()
	if err != nil {
		return nil, err
	}
	par, costs, budget := plan.Par, plan.Costs, plan.Memory.ActBudget
	r := &Report{
		ID:     "pareto",
		Title:  "SVPP variant frontier (Llama 13B, GBS 64, PP=8, SPP=4): f vs memory vs time",
		Header: []string{"f", "peak act (GiB)", "iteration", "bubble", "frontier"},
	}
	type point struct {
		f        int
		peak     int64
		iter     float64
		bubble   float64
		frontier bool
	}
	var pts []point
	lo := par.VP * par.SPP
	hi := sched.DefaultF(par.PP, par.VP, par.SPP)
	for f := lo; f <= hi; f++ {
		s, err := sched.SVPP(sched.SVPPOptions{
			P: par.PP, V: par.VP, S: par.SPP, N: plan.N, F: f,
			Reschedule: true, Split: true, FineGrainedW: costs.WPieces(), Est: costs,
		})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Options{
			Sched: s, Costs: costs, ActBudget: budget,
			DynamicW: true, TailTime: costs.TailTime,
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{f: f, peak: res.PeakAct, iter: res.IterTime, bubble: res.BubbleRatio})
	}
	// A point is on the frontier if no other point is at least as good in
	// both memory and time and strictly better in one.
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if pts[j].peak <= pts[i].peak && pts[j].iter <= pts[i].iter &&
				(pts[j].peak < pts[i].peak || pts[j].iter < pts[i].iter) {
				dominated = true
				break
			}
		}
		pts[i].frontier = !dominated
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].f > pts[j].f })
	frontier := 0
	for _, p := range pts {
		mark := ""
		if p.frontier {
			mark = "*"
			frontier++
		}
		r.Add(p.f, fmt.Sprintf("%.1f", float64(p.peak)/(1<<30)),
			fmt.Sprintf("%.0f ms", p.iter*1e3),
			fmt.Sprintf("%.1f%%", 100*p.bubble), mark)
	}
	r.Note("%d of %d variants sit on the memory/time frontier — each is the right schedule for some memory budget (§4.5's selection problem)", frontier, len(pts))
	return r, nil
}
