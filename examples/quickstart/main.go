// Quickstart: generate the paper's SVPP schedule for a small shape,
// simulate it with unit costs, and render the pipeline timeline — the
// fastest way to see slice-level scheduling (Fig 4) working.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mepipe"
)

func main() {
	// Fig 4(b): 4 pipeline stages, 2 virtual chunks per stage, each
	// sample split into 2 slices, 4 micro-batches.
	svpp, err := mepipe.NewSVPP(mepipe.SVPPOptions{
		P: 4, V: 2, S: 2, N: 4,
		Reschedule: true, // the Fig 6 backward-rescheduling optimisation
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := mepipe.NewRecorder()
	res, err := mepipe.Simulate(context.Background(), svpp, mepipe.UnitCosts(), mepipe.WithTrace(rec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SVPP %s\n", svpp)
	fmt.Printf("  bubble ratio: %.1f%%\n", 100*res.BubbleRatio)
	fmt.Printf("  peak activations: %d slice-chunk families (%d/16 of a sample, Fig 4b says 9/16)\n",
		res.PeakAct, res.PeakAct)
	fmt.Println()
	if err := (mepipe.ASCIITimeline{}).Export(os.Stdout, rec.Trace()); err != nil {
		log.Fatal(err)
	}

	// Compare against 1F1B on the same workload.
	dapple, err := mepipe.NewDAPPLE(4, 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	dres, err := mepipe.Simulate(context.Background(), dapple, mepipe.UnitCosts())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDAPPLE on the same workload: bubble %.1f%%, peak %d micro-batches of activations\n",
		100*dres.BubbleRatio, dres.PeakAct)
	fmt.Printf("SVPP holds %.0f%% less activation memory (per-family footprint is 1/%d of a micro-batch)\n",
		100*(1-float64(res.PeakAct)/4/float64(dres.PeakAct)), 4)
}
