package strategy

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
)

// boundPoint is one configuration of the soundness grid.
type boundPoint struct {
	sys System
	m   config.Model
	cl  cluster.Cluster
	par config.Parallel
	tr  config.Training
}

// checkWorkBound evaluates pt, recording its work bound on the way, and
// fails t when the point is feasible and its simulated iteration time is
// below the bound. It reports whether the point was feasible and bounded.
func checkWorkBound(t testing.TB, pt boundPoint) bool {
	bound := 0.0
	ev, err := evaluate(context.Background(), pt.sys, pt.m, pt.cl, pt.par, pt.tr,
		func(b float64) bool { bound = b; return false }, nil)
	if err != nil || ev.OOM || bound == 0 {
		return false
	}
	if bound > ev.IterTime {
		t.Errorf("%s %s %dx%s GBS %d %v: work bound %.6f s exceeds the simulated %.6f s",
			pt.sys, pt.m.Name, pt.cl.GPUs(), pt.cl.GPU.Name, pt.tr.GlobalBatch, pt.par, bound, ev.IterTime)
	}
	return true
}

// TestWorkBoundSound: the work bound never exceeds the simulated iteration
// time of a feasible point. The grid is every system's default space for
// Llama 7B/13B/34B on 1, 2, 4 and 8 RTX 4090 servers and 4 A100 servers at
// global batch 16, 32, 64 and 128; the Table 3 bubble bound the work bound
// replaced exceeded the simulated time at 61 MEPipe points of it. Under
// -short a seeded tenth of the points runs.
func TestWorkBoundSound(t *testing.T) {
	clusters := []cluster.Cluster{
		cluster.RTX4090Cluster(1), cluster.RTX4090Cluster(2), cluster.RTX4090Cluster(4),
		cluster.RTX4090Cluster(8), cluster.A100Cluster(4),
	}
	systems := append(Systems(), TeraPipe, GPipe)
	var pts []boundPoint
	for _, m := range []config.Model{config.Llama7B(), config.Llama13B(), config.Llama34B()} {
		for _, cl := range clusters {
			for _, gbs := range []int{16, 32, 64, 128} {
				tr := config.Training{GlobalBatch: gbs, MicroBatch: 1}
				for _, sys := range systems {
					for _, par := range enumerate(sys, cl.GPUs(), tr, DefaultSpace()) {
						pts = append(pts, boundPoint{sys, m, cl, par, tr})
					}
				}
			}
		}
	}
	if testing.Short() {
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		pts = pts[:len(pts)/10]
	}
	var mu sync.Mutex
	feasible := 0
	fan(context.Background(), len(pts), func(k int) {
		if checkWorkBound(t, pts[k]) {
			mu.Lock()
			feasible++
			mu.Unlock()
		}
	})
	if feasible == 0 {
		t.Fatalf("no feasible bounded point among %d", len(pts))
	}
	t.Logf("%d points, %d feasible and bounded", len(pts), feasible)
}

// FuzzWorkBoundSound checks the work bound against the simulator at random
// (model, cluster, global batch, system, parallel strategy) points.
func FuzzWorkBoundSound(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(3), uint8(MEPipe), uint8(3), uint8(0), uint8(0), uint8(1), uint8(0)) // 7B, 8 A100 servers, GBS 64, PP=8 SPP=1 VP=2
	f.Add(uint8(1), uint8(2), uint8(1), uint8(MEPipe), uint8(3), uint8(0), uint8(2), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(DAPPLE), uint8(3), uint8(1), uint8(0), uint8(0), uint8(2))
	f.Add(uint8(2), uint8(5), uint8(3), uint8(ZBV), uint8(2), uint8(1), uint8(0), uint8(1), uint8(0))
	// One stage runs all the work back to back: the simulated time equals
	// the bound's sum up to rounding, which the bound's factor absorbs.
	f.Add(uint8(0), uint8(5), uint8(4), uint8(VPP), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, mi, ci, gi, si, ppi, cpi, sppi, vpi, reci uint8) {
		models := []config.Model{config.Llama7B(), config.Llama13B(), config.Llama34B()}
		clusters := []cluster.Cluster{
			cluster.RTX4090Cluster(1), cluster.RTX4090Cluster(2), cluster.RTX4090Cluster(4),
			cluster.RTX4090Cluster(8), cluster.A100Cluster(8), cluster.A100Cluster(4),
		}
		pick := func(xs []int, i uint8) int { return xs[int(i)%len(xs)] }
		cl := clusters[int(ci)%len(clusters)]
		par := config.Parallel{
			PP:        pick([]int{1, 2, 4, 8, 16}, ppi),
			CP:        pick([]int{1, 2, 4, 8}, cpi),
			SPP:       pick([]int{1, 2, 4, 8, 16}, sppi),
			VP:        pick([]int{1, 2, 4}, vpi),
			Recompute: config.RecomputeMode(int(reci) % 3),
		}
		if cl.GPUs()%(par.PP*par.CP) != 0 {
			return
		}
		par.DP = cl.GPUs() / (par.PP * par.CP)
		checkWorkBound(t, boundPoint{
			sys: System(int(si) % int(GPipe+1)),
			m:   models[int(mi)%len(models)],
			cl:  cl,
			par: par,
			tr:  config.Training{GlobalBatch: pick([]int{8, 16, 32, 64, 128}, gi), MicroBatch: 1},
		})
	})
}

// TestWorkBoundCostsThePlan: the bound is taken on the cost model the
// schedule runs on, bit for bit. At Llama-7B PP=2 ZBV's wave placement
// gives a higher bound than the round-robin one perf.New starts from.
func TestWorkBoundCostsThePlan(t *testing.T) {
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	m7 := config.Llama7B()
	for _, sys := range append(Systems(), TeraPipe, GPipe) {
		par := config.Parallel{PP: 2, DP: 32, CP: 1, SPP: 1, VP: 1}
		switch sys {
		case VPP, ZBV:
			par.VP = 2
		case MEPipe, TeraPipe:
			par.SPP = 4
		}
		bound := 0.0
		p, err := resolve(sys, m7, cl64, par, tr, func(b float64) bool { bound = b; return false })
		if err != nil || p.Costs == nil {
			t.Fatalf("%s %v: %v", sys, par, err)
		}
		if want := workBound(p.Costs, par, p.N); bound != want {
			t.Errorf("%s %v: bound %v, the plan's costs give %v", sys, par, bound, want)
		}
	}
}
