// memvariants walks the §4.2 memory/bubble trade-off: it plans MEPipe for
// Llama 13B under progressively smaller artificial memory caps, showing how
// the SVPP variant knob f shrinks (Fig 5) and what each gigabyte saved
// costs in bubbles — the mechanism that lets MEPipe squeeze Llama 34B onto
// 24 GB cards (§7.4).
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/memplan"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/strategy"
)

func main() {
	m := config.Llama13B()
	plan, err := strategy.Resolve(strategy.MEPipe, m, cluster.RTX4090Cluster(8),
		config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, config.Training{GlobalBatch: 64, MicroBatch: 1})
	fatal(err)
	fatal(plan.Unfit)
	par, costs := plan.Par, plan.Costs
	fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
	grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})

	fmt.Printf("%s at %v: one slice-chunk of activations = %.2f GiB\n", m.Name, par, float64(fam)/(1<<30))
	fmt.Printf("full per-stage activation budget: %.2f GiB\n\n", float64(plan.Memory.ActBudget[0])/(1<<30))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "memory cap\tvariant f\tpeak act\titeration\tbubble")
	for _, frac := range []float64{1.0, 0.8, 0.6, 0.45, 0.4} {
		budget := int64(float64(plan.Memory.ActBudget[0]) * frac)
		f, err := memplan.ChooseF(par, fam, grad, budget)
		if err != nil {
			fmt.Fprintf(w, "%.0f%%\t-\t-\t-\tno variant fits (%v)\n", 100*frac, err)
			continue
		}
		s, err := sched.SVPP(sched.SVPPOptions{
			P: par.PP, V: par.VP, S: par.SPP, N: plan.N, F: f,
			Reschedule: true, Split: true, FineGrainedW: costs.WPieces(), Est: costs,
		})
		fatal(err)
		budgets := make([]int64, par.PP)
		for i := range budgets {
			budgets[i] = budget
		}
		res, err := sim.Run(sim.Options{
			Sched: s, Costs: costs, ActBudget: budgets, DynamicW: true, TailTime: costs.TailTime,
		})
		fatal(err)
		status := fmt.Sprintf("%.1f%%", 100*res.BubbleRatio)
		if res.OOM {
			status += " (OOM)"
		}
		fmt.Fprintf(w, "%.0f%% (%.1f GiB)\t%d\t%.1f GiB\t%.0f ms\t%s\n",
			100*frac, float64(budget)/(1<<30), f, float64(res.PeakAct)/(1<<30), res.IterTime*1e3, status)
	}
	fatal(w.Flush())
	fmt.Println("\nshrinking the cap lowers f: fewer forwards in flight, less memory, more bubbles (Fig 5)")
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
