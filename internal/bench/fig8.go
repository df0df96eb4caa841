package bench

import (
	"context"
	"fmt"
	"sync"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/strategy"
)

func init() {
	register("fig8", "iteration time of Llama 13B across global batch sizes (end-to-end)", Fig8)
	register("table5", "optimal parallel configuration per system (Llama 13B)", Table5)
}

// searchAll grid-searches every system over the default space in one
// strategy.Sweep, keyed by system. A system whose grid has no feasible
// point keeps its empty result.
func searchAll(m config.Model, cl cluster.Cluster, tr config.Training) (map[strategy.System]*strategy.SearchResult, error) {
	systems := strategy.Systems()
	sw, err := strategy.Sweep(context.Background(), systems, m, cl, tr, strategy.DefaultSpace())
	if err != nil {
		return nil, err
	}
	out := map[strategy.System]*strategy.SearchResult{}
	for i, sys := range systems {
		out[sys] = sw.Results[i]
	}
	return out, nil
}

// fig8Data caches the grid searches shared by Fig 8 and Table 5.
var fig8Data = struct {
	sync.Mutex
	results map[int]map[strategy.System]*strategy.SearchResult
}{results: map[int]map[strategy.System]*strategy.SearchResult{}}

func fig8Search(gbs int) (map[strategy.System]*strategy.SearchResult, error) {
	fig8Data.Lock()
	defer fig8Data.Unlock()
	if r, ok := fig8Data.results[gbs]; ok {
		return r, nil
	}
	out, err := searchAll(config.Llama13B(), cluster.RTX4090Cluster(8), config.Training{GlobalBatch: gbs, MicroBatch: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: fig8 gbs=%d: %w", gbs, err)
	}
	fig8Data.results[gbs] = out
	return out, nil
}

// Fig8 regenerates Figure 8: best iteration time per system for Llama 13B
// at global batch sizes 32, 64 and 128 on the 64× RTX 4090 cluster.
func Fig8() (*Report, error) {
	r := &Report{
		ID:     "fig8",
		Title:  "Llama 13B iteration time (ms) by global batch size, 64x RTX 4090",
		Header: []string{"system", "GBS 32", "GBS 64", "GBS 128"},
	}
	times := map[strategy.System][3]float64{}
	gbses := []int{32, 64, 128}
	for gi, gbs := range gbses {
		res, err := fig8Search(gbs)
		if err != nil {
			return nil, err
		}
		for _, sys := range strategy.Systems() {
			t := times[sys]
			if best := res[sys].Best(); best != nil {
				t[gi] = best.IterTime * 1e3
			}
			times[sys] = t
		}
	}
	for _, sys := range strategy.Systems() {
		t := times[sys]
		cells := []interface{}{sys.String()}
		for gi := range gbses {
			if t[gi] == 0 {
				cells = append(cells, "OOM")
			} else {
				cells = append(cells, fmt.Sprintf("%.0f", t[gi]))
			}
		}
		r.Add(cells...)
	}
	// Speedup of MEPipe over the best baseline, the paper's headline.
	for gi, gbs := range gbses {
		best := 0.0
		for _, sys := range strategy.Systems() {
			if sys == strategy.MEPipe {
				continue
			}
			if t := times[sys][gi]; t > 0 && (best == 0 || t < best) {
				best = t
			}
		}
		me := times[strategy.MEPipe][gi]
		if me > 0 && best > 0 {
			r.Note("GBS %d: MEPipe speedup over best baseline = %.2fx (paper: %s)",
				gbs, best/me, map[int]string{32: "1.86x", 64: "1.49x", 128: "1.36x"}[gbs])
		}
	}
	return r, nil
}

// Table5 regenerates Table 5: the grid-searched optimal (PP, CP/SPP, VP,
// recompute) tuple per system and batch size.
func Table5() (*Report, error) {
	r := &Report{
		ID:     "table5",
		Title:  "optimal parallel configuration (PP, CP/SPP, VP, recompute) per system, Llama 13B",
		Header: []string{"system", "GBS 32", "GBS 64", "GBS 128"},
	}
	for _, sys := range strategy.Systems() {
		cells := []interface{}{sys.String()}
		for _, gbs := range []int{32, 64, 128} {
			res, err := fig8Search(gbs)
			if err != nil {
				return nil, err
			}
			best := res[sys].Best()
			if best == nil {
				cells = append(cells, "OOM")
				continue
			}
			cells = append(cells, tuple(best.Par))
		}
		r.Add(cells...)
	}
	r.Note("paper Table 5: DAPPLE (8,2,1,x); VPP (4,*,2,r); ZB (8,4,1,x); ZBV (4,8,2,x)/OOM@128; MEPipe (8,4,1,x)")
	return r, nil
}

// tuple renders a strategy as the paper's (PP, CP/SPP, VP, recompute) cell.
func tuple(p config.Parallel) string {
	slice := p.CP
	if p.SPP > 1 {
		slice = p.SPP
	}
	rec := "x"
	switch p.Recompute {
	case config.RecomputeSelective:
		rec = "s"
	case config.RecomputeFull:
		rec = "r"
	}
	return fmt.Sprintf("(%d,%d,%d,%s)", p.PP, slice, p.VP, rec)
}
