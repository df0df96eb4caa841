package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
)

// topKProbe is one search of the pruning probe grid.
type topKProbe struct {
	sys System
	m   config.Model
	cl  cluster.Cluster
	tr  config.Training
}

func (p topKProbe) String() string {
	return fmt.Sprintf("%s/%s/%dx%s/GBS%d", p.sys, p.m.Name, p.cl.GPUs(), p.cl.GPU.Name, p.tr.GlobalBatch)
}

// topKProbes is the probe grid (Llama 7B/13B/34B × 4 and 8 servers of RTX
// 4090s and of A100s × GBS 32/64/128 × all seven systems), shuffled by a
// fixed seed and cut to n searches.
func topKProbes(n int) []topKProbe {
	var pts []topKProbe
	for _, m := range []config.Model{config.Llama7B(), config.Llama13B(), config.Llama34B()} {
		for _, cl := range []cluster.Cluster{
			cluster.RTX4090Cluster(4), cluster.RTX4090Cluster(8), cluster.A100Cluster(4), cluster.A100Cluster(8),
		} {
			for _, gbs := range []int{32, 64, 128} {
				for _, sys := range append(Systems(), TeraPipe, GPipe) {
					pts = append(pts, topKProbe{sys, m, cl, config.Training{GlobalBatch: gbs, MicroBatch: 1}})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts[:min(n, len(pts))]
}

// TestPrunedTopKExact: a pruned search told it will be read to rank k
// returns the unpruned search's first k candidates, bit for bit. Pruning
// against the best time alone kept only rank 1 exact: the true runner-up
// of a search could have a bound above the best time and be dropped,
// while a slow point with a low bound, or an OOM point, took its rank.
// The probes are a seeded subset of the grid; at least one of them
// differs in its top 3 when pruned against the best time alone.
func TestPrunedTopKExact(t *testing.T) {
	ctx := context.Background()
	ranksMoved := 0
	for _, pt := range topKProbes(36) {
		sp := DefaultSpace()
		full, fullErr := SearchContext(ctx, pt.sys, pt.m, pt.cl, pt.tr, sp)
		sp.Prune = true
		for _, k := range []int32{1, 3, 5} {
			sp.Top = k
			pruned, err := SearchContext(ctx, pt.sys, pt.m, pt.cl, pt.tr, sp)
			if fmt.Sprint(err) != fmt.Sprint(fullErr) {
				t.Fatalf("%v top %d: pruned error %v, unpruned %v", pt, k, err, fullErr)
			}
			if fullErr != nil {
				continue
			}
			want := full.Candidates[:min(int(k), len(full.Candidates))]
			if len(pruned.Candidates) < len(want) {
				t.Fatalf("%v top %d: pruned search lists %d candidates, want at least %d", pt, k, len(pruned.Candidates), len(want))
			}
			if got := pruned.Candidates[:len(want)]; !reflect.DeepEqual(got, want) {
				t.Errorf("%v top %d: pruned ranks differ from the unpruned ones", pt, k)
			}
		}
		if fullErr == nil && len(full.Candidates) >= 3 {
			sp.Top = 0
			one, err := SearchContext(ctx, pt.sys, pt.m, pt.cl, pt.tr, sp)
			if err != nil {
				t.Fatal(err)
			}
			if len(one.Candidates) < 3 || !reflect.DeepEqual(one.Candidates[:3], full.Candidates[:3]) {
				ranksMoved++
			}
		}
	}
	if ranksMoved == 0 {
		t.Errorf("no probe's top 3 moves when pruned against the best time alone: the subset does not exercise the rule")
	}
	t.Logf("%d probes lose a top-3 rank when pruned against the best time alone", ranksMoved)
}
