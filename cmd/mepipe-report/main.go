// Command mepipe-report regenerates the entire evaluation and writes a
// single self-contained HTML page with every table, the paper-vs-measured
// notes, and embedded SVG timelines for the headline configuration.
//
//	mepipe-report -o report.html
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mepipe/internal/bench"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/obs"
	"mepipe/internal/strategy"
	"mepipe/internal/timeline"
)

func main() {
	out := flag.String("o", "report.html", "output file")
	flag.Parse()

	var reports []*bench.Report
	for _, e := range bench.Experiments() {
		fmt.Fprintf(os.Stderr, "running %s...\n", e.ID)
		r, err := e.Run()
		fatal(err)
		reports = append(reports, r)
	}
	// Embed the Fig 11/12 headline timeline as SVG.
	svgs := map[string]string{}
	rec := obs.NewRecorder()
	_, err := strategy.EvaluateContext(context.Background(), strategy.MEPipe, config.Llama13B(), cluster.RTX4090Cluster(8),
		config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1},
		config.Training{GlobalBatch: 64, MicroBatch: 1}, strategy.WithSink(rec))
	fatal(err)
	var sb strings.Builder
	fatal(timeline.SVG{}.Export(&sb, rec.Trace()))
	svgs["fig11_12"] = sb.String()

	f, err := os.Create(*out)
	fatal(err)
	fatal(bench.WriteHTML(f, reports, svgs))
	fatal(f.Close())
	fmt.Printf("wrote %s (%d experiments)\n", *out, len(reports))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-report:", err)
		os.Exit(1)
	}
}
