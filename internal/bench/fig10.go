package bench

import (
	"fmt"
	"sync"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/strategy"
)

func init() {
	register("fig10", "iteration time across model sizes (Llama 7B/13B/34B, GBS 128)", Fig10)
	register("table8", "optimal parallel configuration per system across model sizes", Table8)
}

var fig10Data = struct {
	sync.Mutex
	results map[string]map[strategy.System]*strategy.SearchResult
}{results: map[string]map[strategy.System]*strategy.SearchResult{}}

func fig10Search(m config.Model) (map[strategy.System]*strategy.SearchResult, error) {
	fig10Data.Lock()
	defer fig10Data.Unlock()
	if r, ok := fig10Data.results[m.Name]; ok {
		return r, nil
	}
	out, err := searchAll(m, cluster.RTX4090Cluster(8), config.Training{GlobalBatch: 128, MicroBatch: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: fig10 %s: %w", m.Name, err)
	}
	fig10Data.results[m.Name] = out
	return out, nil
}

func fig10Models() []config.Model {
	return []config.Model{config.Llama7B(), config.Llama13B(), config.Llama34B()}
}

// Fig10 regenerates Figure 10: best iteration time per system for Llama
// 7B/13B/34B at global batch 128.
func Fig10() (*Report, error) {
	r := &Report{
		ID:     "fig10",
		Title:  "iteration time (ms) by model size, GBS 128, 64x RTX 4090",
		Header: []string{"system", "7B", "13B", "34B"},
	}
	for _, sys := range strategy.Systems() {
		cells := []interface{}{sys.String()}
		for _, m := range fig10Models() {
			res, err := fig10Search(m)
			if err != nil {
				return nil, err
			}
			if best := res[sys].Best(); best != nil {
				cells = append(cells, fmt.Sprintf("%.0f", best.IterTime*1e3))
			} else {
				cells = append(cells, "OOM")
			}
		}
		r.Add(cells...)
	}
	r.Note("paper anchors (Table 9, MEPipe on 4090): 7B 3171 ms, 13B 5852 ms, 34B 17043 ms")
	return r, nil
}

// Table8 regenerates Table 8: the optimal configuration tuples per system
// and model size (VPP/ZB/ZBV hit the 34B static-memory wall).
func Table8() (*Report, error) {
	r := &Report{
		ID:     "table8",
		Title:  "optimal (PP, CP/SPP, VP, recompute) per system and model size, GBS 128",
		Header: []string{"system", "7B", "13B", "34B"},
	}
	for _, sys := range strategy.Systems() {
		cells := []interface{}{sys.String()}
		for _, m := range fig10Models() {
			res, err := fig10Search(m)
			if err != nil {
				return nil, err
			}
			if best := res[sys].Best(); best != nil {
				cells = append(cells, tuple(best.Par))
			} else {
				cells = append(cells, "OOM")
			}
		}
		r.Add(cells...)
	}
	r.Note("paper Table 8: MEPipe (8,4,1) for 7B/13B and (16,16,1) for 34B; VPP/ZB/ZBV unable to train 34B")
	return r, nil
}
