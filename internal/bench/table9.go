package bench

import (
	"fmt"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/strategy"
)

func init() {
	register("table9", "A100 vs RTX 4090: iteration time, TFLOPS, cost-effectiveness", Table9)
}

// bestAcrossSystems returns the fastest feasible evaluation over all
// systems on the given cluster (the paper reports the *optimal* A100 time).
func bestAcrossSystems(m config.Model, cl cluster.Cluster, tr config.Training) (*strategy.Eval, error) {
	all, err := searchAll(m, cl, tr)
	if err != nil {
		return nil, err
	}
	var best *strategy.Eval
	for _, sys := range strategy.Systems() {
		if b := all[sys].Best(); b != nil && (best == nil || b.IterTime < best.IterTime) {
			best = b
		}
	}
	if best == nil {
		return nil, fmt.Errorf("bench: no feasible configuration for %s on %s", m.Name, cl.GPU.Name)
	}
	return best, nil
}

// Table9 regenerates Table 9: Llama 7B/13B/34B at global batch 128 on the
// 64× RTX 4090 cluster (8 servers) vs the 32× A100 cluster (4 servers),
// with achieved TFLOPS per GPU and the cost-effectiveness ratio.
func Table9() (*Report, error) {
	tr := config.Training{GlobalBatch: 128, MicroBatch: 1}
	cl4090 := cluster.RTX4090Cluster(8)
	clA100 := cluster.A100Cluster(4)
	r := &Report{
		ID:    "table9",
		Title: "A100-32 vs RTX 4090-64 (GBS 128)",
		Header: []string{"model", "A100 iter", "A100 TFLOPS/GPU", "4090 iter", "4090 TFLOPS/GPU",
			"4090 MFU", "cost-effectiveness"},
	}
	paper := map[string][2]string{
		"llama-7b":  {"3216 ms / 220.4 TF", "3171 ms / 111.7 TF"},
		"llama-13b": {"6131 ms / 221.4 TF", "5852 ms / 116.0 TF"},
		"llama-34b": {"16167 ms / 213.9 TF", "17043 ms / 101.5 TF"},
	}
	for _, m := range fig10Models() {
		a100, err := bestAcrossSystems(m, clA100, tr)
		if err != nil {
			return nil, err
		}
		// 4090 numbers come from the (cached) Fig 10 MEPipe search.
		res, err := fig10Search(m)
		if err != nil {
			return nil, err
		}
		g4090 := res[strategy.MEPipe].Best()
		if g4090 == nil {
			return nil, fmt.Errorf("bench: MEPipe infeasible for %s on 4090s", m.Name)
		}
		// Cost-effectiveness: tokens/second per dollar, 4090 relative to
		// A100 (price × time, inverted).
		ce := (a100.IterTime * clA100.Price()) / (g4090.IterTime * cl4090.Price())
		r.Add(m.Name,
			fmt.Sprintf("%.0f ms", a100.IterTime*1e3),
			fmt.Sprintf("%.1f", a100.TFLOPSPerGPU(m, tr, clA100.GPUs())),
			fmt.Sprintf("%.0f ms", g4090.IterTime*1e3),
			fmt.Sprintf("%.1f", g4090.TFLOPSPerGPU(m, tr, cl4090.GPUs())),
			fmt.Sprintf("%.1f%%", 100*g4090.MFU(m, tr, cl4090)),
			fmt.Sprintf("%.2fx", ce))
		r.Note("%s paper: A100 %s; 4090 %s", m.Name, paper[m.Name][0], paper[m.Name][1])
	}
	r.Note("paper headline: comparable iteration times, 4090 cluster ~2.5x more cost-effective (price ratio alone = 2.5x)")
	return r, nil
}
