package v1_test

import (
	"context"
	"math"
	"testing"

	v1 "mepipe/api/v1"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/obs"
	"mepipe/internal/strategy"
)

// TestRecordedTraceKeepsTail records resolved plans' simulations and reads
// them back: the recording's makespan is IterTime bit for bit, gradient-sync
// tail included, and the breakdown built from its Snapshot is the one
// /v1/simulate served before the Result stopped carrying spans. Each row's
// fractions were recorded from the span-based utilization breakdown. The
// MEPipe row runs the §5 dynamic engine, the DAPPLE row the static path.
func TestRecordedTraceKeepsTail(t *testing.T) {
	rows := []struct {
		sys  strategy.System
		m    config.Model
		par  config.Parallel
		want [5]uint64 // forward, backward, weight, tail, idle
	}{
		{strategy.MEPipe, config.Llama7B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1},
			[5]uint64{0x3fcf87c3f7579e45, 0x3fd14ce3680132e3, 0x3fccc1d40a13aa45, 0x3fc178d3055b1635, 0x3fbf479c526e76f3}},
		{strategy.DAPPLE, config.Llama13B(), config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1},
			[5]uint64{0x3fca16a70dfcd0d2, 0x3fda1c87e9fc1dec, 0, 0x3fb8310d3e81096b, 0x3fd2cbe13f653751}},
	}
	for _, r := range rows {
		p, err := strategy.Resolve(r.sys, r.m, cluster.RTX4090Cluster(8), r.par, config.Training{GlobalBatch: 64, MicroBatch: 1})
		if err != nil || p.Unfit != nil {
			t.Fatalf("%s: resolve: %v, unfit %v", r.sys, err, p.Unfit)
		}
		rec := obs.NewRecorder()
		res, err := p.Simulate(context.Background(), strategy.WithSink(rec))
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		if math.Float64bits(tr.Makespan) != math.Float64bits(res.IterTime) {
			t.Errorf("%s: recorded makespan %v, IterTime %v", r.sys, tr.Makespan, res.IterTime)
		}
		if math.Abs(tr.Bubble-res.BubbleRatio) > 1e-12 {
			t.Errorf("%s: recorded bubble %v, result %v", r.sys, tr.Bubble, res.BubbleRatio)
		}
		b := v1.BreakdownFrom(tr.Snapshot())
		got := [5]uint64{math.Float64bits(b.Forward), math.Float64bits(b.Backward),
			math.Float64bits(b.Weight), math.Float64bits(b.Tail), math.Float64bits(b.Idle)}
		if got != r.want {
			t.Errorf("%s: breakdown %+v (bits %#x), want bits %#x", r.sys, b, got, r.want)
		}
	}
}
