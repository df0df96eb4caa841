// Command mepipe-bench regenerates the paper's evaluation tables and
// figures from the reproduction's models and simulator.
//
// Examples:
//
//	mepipe-bench                # every experiment
//	mepipe-bench -exp fig8      # one experiment
//	mepipe-bench -list          # what exists
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mepipe/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "", "run a single experiment by id (see -list)")
		list   = flag.Bool("list", false, "list available experiments")
		format = flag.String("format", "text", "output format: text or csv")
	)
	flag.Parse()

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
