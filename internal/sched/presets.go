package sched

// Preset constructors for every scheduling system the paper evaluates.
// Each returns a Schedule valid by construction (see Generate); est may be
// nil for unit costs.

// GPipe schedules all forwards then all backwards (§2.1).
func GPipe(p, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{Name: "GPipe", P: p, V: 1, S: 1, N: n, Est: est})
}

// DAPPLE is the 1F1B schedule of Fig 2: stage k admits at most p−k
// micro-batches before alternating one-forward-one-backward.
func DAPPLE(p, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{
		Name: "DAPPLE", P: p, V: 1, S: 1, N: n, Est: est,
		InFlightCap: func(k int) int { return p - k },
	})
}

// VPP is Megatron-LM interleaved virtual pipeline parallelism: v chunks per
// stage in round-robin placement; stage k holds at most vp+p−1−k in-flight
// chunk-forwards (Table 3's memory row).
func VPP(p, v, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{
		Name: "VPP", P: p, V: v, S: 1, N: n, Est: est,
		Place:       RoundRobin{P: p, V: v},
		InFlightCap: func(k int) int { return v*p + p - 1 - k },
		// Megatron's hand-written interleaved order drains backward
		// chunks in dependency-priority order; the reschedule policy
		// reproduces it (and the Table 3 bubble ratio) exactly.
		Reschedule: true,
	})
}

// Hanayo is the wave-style schedule: two chunks per stage in V placement, so
// the forward wave reflects off the last stage.
//
// The greedy generator reproduces the wave's memory behaviour but paces the
// steady state more loosely than Hanayo's hand-crafted order (the backward
// of a sample costs the first stage two widely separated ops under the V
// placement). The evaluation harness therefore uses Hanayo through its
// analytic Table 3 row, like the paper, and keeps this generator for
// validation and timeline inspection.
func Hanayo(p, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{
		Name: "Hanayo", P: p, V: 2, S: 1, N: n, Est: est,
		Place:       Wave{P: p},
		InFlightCap: func(k int) int { return 2*p + p - 1 - k },
		Reschedule:  true,
	})
}

// TeraPipe is sequence pipeline parallelism with GPipe-style scheduling
// (Fig 3): slices flow through unconstrained, so every stage retains the
// activations of all n·s slices before the first backward.
func TeraPipe(p, s, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{Name: "TeraPipe", P: p, V: 1, S: s, N: n, Est: est})
}

// ZB1P is zero-bubble pipeline parallelism over the DAPPLE skeleton:
// backwards are split, activation gradients keep 1F1B pacing, and weight
// gradients fill stalls — later stages may defer more of them, letting the
// tail bubbles absorb the deferred work (§2.1). The deferral bound keeps
// memory within one extra micro-batch of DAPPLE per deferred W, mirroring
// ZB-1P's "same memory as 1F1B" design point.
func ZB1P(p, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{
		Name: "ZB-1P", P: p, V: 1, S: 1, N: n, Est: est, SplitBW: true,
		InFlightCap: func(k int) int { return p - k },
		WDeferCap:   func(k int) int { return p - k },
	})
}

// ZBV is zero-bubble scheduling over the wave (V) placement.
func ZBV(p, n int, est Estimator) (*Schedule, error) {
	return Generate(GenOptions{
		Name: "ZBV", P: p, V: 2, S: 1, N: n, Est: est, SplitBW: true,
		Place:       Wave{P: p},
		InFlightCap: func(k int) int { return 2*p + p - 1 - k },
		WDeferCap:   func(k int) int { return 2 * (p - k) },
		Reschedule:  true,
	})
}

// SVPPOptions selects the paper's scheduling variant.
type SVPPOptions struct {
	P, V, S, N int
	// F is the number of forward passes stage 0 may execute before the
	// first backward (§4.2's memory knob). Zero selects the lowest-bubble
	// variant, f = v·max(p,s) + min(p,s) − 1. Values below the v·s
	// minimum are raised to it.
	F int
	// Reschedule applies the Fig-6 backward rescheduling optimisation.
	Reschedule bool
	// Split enables zero-bubble-style B/W separation; FineGrainedW
	// additionally decomposes each W into this many GEMM pieces (§5).
	Split        bool
	FineGrainedW int
	// WDeferCap optionally bounds deferred weight-gradient ops per stage
	// (pieces count individually). Nil leaves deferral unbounded and lets
	// gap filling place the work.
	WDeferCap func(stage int) int

	Est Estimator
}

// DefaultF returns the bubble-optimal number of in-flight forwards for
// stage 0 (§4.4): v·max(p,s) + min(p,s) − 1.
func DefaultF(p, v, s int) int {
	if s > p {
		return v*s + p - 1
	}
	return v*p + s - 1
}

// GenOpts is the generator configuration SVPP passes to Generate,
// f-defaulting and clamping included.
func (o SVPPOptions) GenOpts() GenOptions {
	f := o.F
	if f <= 0 {
		f = DefaultF(o.P, o.V, o.S)
	}
	if min := o.V * o.S; f < min {
		f = min
	}
	name := "SVPP"
	pieces := 0
	if o.Split {
		name = "MEPipe"
		pieces = o.FineGrainedW
	}
	return GenOptions{
		Name: name, P: o.P, V: o.V, S: o.S, N: o.N, Est: o.Est,
		Place:       RoundRobin{P: o.P, V: o.V},
		SplitBW:     o.Split,
		WPieces:     pieces,
		InFlightCap: func(k int) int { return f - k },
		WDeferCap:   o.WDeferCap,
		Reschedule:  o.Reschedule,
	}
}

// SVPP generates the paper's sequence virtual pipeline parallelism
// schedule. With Split and FineGrainedW it is the full MEPipe schedule.
func SVPP(o SVPPOptions) (*Schedule, error) {
	return Generate(o.GenOpts())
}

// MEPipe is SVPP with split backwards and fine-grained weight-gradient
// pieces — the paper's full system. pieces is the per-op GEMM decomposition
// (7 GEMM groups per layer family; see model.WeightGradGEMMsPerLayer).
func MEPipe(p, v, s, n, f, pieces int, est Estimator) (*Schedule, error) {
	return SVPP(SVPPOptions{
		P: p, V: v, S: s, N: n, F: f,
		Reschedule: true, Split: true, FineGrainedW: pieces, Est: est,
	})
}
