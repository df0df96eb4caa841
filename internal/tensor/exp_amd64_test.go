package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// skipWithoutExpLeaves skips a test of the exp leaves on a CPU that runs
// the Go loops instead.
func skipWithoutExpLeaves(t *testing.T) {
	t.Helper()
	if !hasAVX2() || !hasFMA() {
		t.Skip("this CPU lacks AVX2 or FMA: sigmoids and expDiffs run the Go loops")
	}
}

// expEdges returns the exp leaves' edge inputs, each with its negation:
// ±0, subnormals, the largest float32, ±Inf, NaN, ±700 and the float32 on
// either side of it, math.Exp's overflow (709.78) and denormal (≈ −708.4)
// thresholds, and the point past which it underflows to 0.
func expEdges() []float32 {
	below700, above700 := adjacent(700)
	below709, _ := adjacent(709.78)
	var xs []float32
	for _, v := range []float32{
		0, math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.MaxFloat32, float32(math.Inf(1)),
		700, below700, above700,
		709.78, below709, 708.39, 708.4, 745.2,
		1, 0.5, 88.7, 1e-30,
	} {
		xs = append(xs, v, -v)
	}
	return append(xs, float32(math.NaN()), math.Float32frombits(0xffc00001))
}

// adjacent returns the float32 values on either side of a positive,
// finite v.
func adjacent(v float32) (below, above float32) {
	b := math.Float32bits(v)
	return math.Float32frombits(b - 1), math.Float32frombits(b + 1)
}

// edgeRuns calls f with every run of 0–9 consecutive values of xs, each
// edge value placed between in-range random values, so every edge value
// meets every lane of a group of four and every scalar tail.
func edgeRuns(f func(x []float32)) {
	rng := rand.New(rand.NewSource(48))
	var xs []float32
	for _, v := range expEdges() {
		xs = append(xs, v, rng.Float32()*20-10, rng.Float32()*20-10)
	}
	for start := range xs {
		for n := 0; n <= 9 && start+n <= len(xs); n++ {
			f(xs[start : start+n])
		}
	}
}

// sweepStride is the step of the float32 bit-pattern sweeps: about 44
// million inputs, or 430 thousand under -short.
func sweepStride() uint64 {
	if testing.Short() {
		return 9973
	}
	return 97
}

// sweep calls f with the float32 bit patterns 0, stride, 2·stride, … below
// 2³², in chunks.
func sweep(stride uint64, f func(x []float32)) {
	x := make([]float32, 0, 4096)
	for b := uint64(0); b < 1<<32; b += stride {
		x = append(x, math.Float32frombits(uint32(b)))
		if len(x) == cap(x) {
			f(x)
			x = x[:0]
		}
	}
	f(x)
}

// checkSigmoids diffs sigmoids against the scalar loop bit for bit; dst
// sits inside a larger buffer, compared whole, so a store past len(x)
// fails too.
func checkSigmoids(t *testing.T, x []float32) {
	t.Helper()
	want := make([]float32, len(x)+4)
	for i := range want {
		want[i] = -1
	}
	got := slices.Clone(want)
	sigmoidsGo(want, x)
	sigmoids(got[:len(x)], x)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("sigmoid, n=%d, element %d (x=%v, bits %#08x): leaf %v (%#08x), scalar %v (%#08x)",
			len(x), i, x[min(i, len(x)-1)], math.Float32bits(x[min(i, len(x)-1)]),
			got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// checkExpDiffs diffs expDiffs against the scalar loop bit for bit, as
// checkSigmoids does.
func checkExpDiffs(t *testing.T, x []float32, c float32) {
	t.Helper()
	want := make([]float64, len(x)+4)
	for i := range want {
		want[i] = -1
	}
	got := slices.Clone(want)
	expDiffsGo(want, x, c)
	expDiffs(got[:len(x)], x, c)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("exp(x−c), c=%v, n=%d, element %d (x=%v): leaf %v (%#016x), scalar %v (%#016x)",
				c, len(x), i, x[min(i, len(x)-1)], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// expDiffCs are the subtrahends the exp-of-difference tests take.
var expDiffCs = []float32{0, 1.5, -3.25, 700, float32(math.Inf(1)), float32(math.NaN())}

// TestExpLeavesEdges diffs both exp leaves against their scalar oracles on
// the edge inputs, at every lane position and every length 0–9.
func TestExpLeavesEdges(t *testing.T) {
	skipWithoutExpLeaves(t)
	edgeRuns(func(x []float32) {
		checkSigmoids(t, x)
		for _, c := range expDiffCs {
			checkExpDiffs(t, x, c)
		}
	})
}

// TestExpLeavesSweep diffs both exp leaves against their scalar oracles
// on a strided sweep of every float32 bit pattern: the sigmoid of each,
// and its exp as the difference from 0 and from 1.5.
func TestExpLeavesSweep(t *testing.T) {
	skipWithoutExpLeaves(t)
	sweep(sweepStride(), func(x []float32) {
		checkSigmoids(t, x)
		checkExpDiffs(t, x, 0)
		checkExpDiffs(t, x, 1.5)
	})
}

// TestExpLeavesStopAtRange checks that the leaves run every whole group of
// in-range inputs themselves, and stop at the first group with a lane
// beyond ±700 or NaN, leaving it to the Go loop.
func TestExpLeavesStopAtRange(t *testing.T) {
	skipWithoutExpLeaves(t)
	rng := rand.New(rand.NewSource(49))
	x := make([]float32, 23)
	for i := range x {
		x[i] = rng.Float32()*1400 - 700
	}
	f32, f64 := make([]float32, len(x)), make([]float64, len(x))
	if n := sigmoidAVX2(f32, x); n != 20 {
		t.Fatalf("sigmoid leaf set %d of 23 in-range inputs, want 20", n)
	}
	if n := expDiffAVX2(f64, x, 0); n != 20 {
		t.Fatalf("exp leaf set %d of 23 in-range inputs, want 20", n)
	}
	_, above700 := adjacent(700)
	for _, v := range []float32{above700, -700.5, float32(math.Inf(-1)), float32(math.NaN())} {
		for i := 0; i < 20; i++ {
			y := slices.Clone(x)
			y[i] = v
			if n := sigmoidAVX2(f32, y); n != i&^3 {
				t.Errorf("sigmoid leaf with %v at %d set %d, want %d", v, i, n, i&^3)
			}
			if n := expDiffAVX2(f64, y, 0); n != i&^3 {
				t.Errorf("exp leaf with %v at %d set %d, want %d", v, i, n, i&^3)
			}
		}
	}
}

// TestExpUsersSameOnBothLeafSets runs SiLU, SiLUBackward,
// SoftmaxRowsCausal and CrossEntropy on both leaf sets, on shapes that
// cover the stack buffers' chunk boundary, with edge values in the inputs,
// and requires every output to be bit-identical across them.
func TestExpUsersSameOnBothLeafSets(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	edges := expEdges()
	spike := func(m *Matrix) *Matrix {
		for i := 0; i < len(m.Data); i += 7 {
			m.Data[i] = edges[rng.Intn(len(edges))]
		}
		return m
	}
	type outs struct{ silu, act, dx, probs, dLogits []float32 }
	var runs []outs
	x := spike(randMat(rng, 3, expChunk+5))
	dy := randMat(rng, 3, expChunk+5)
	scores := randMat(rng, 9, expChunk+40)
	scores.Scale(30)
	logits := spike(randMat(rng, 5, expChunk+9))
	targets := []int{3, -1, expChunk + 8, 0, 17}
	var losses []float64
	WithLeaves(t, func(t *testing.T) {
		var o outs
		silu, act, dx := New(x.Rows, x.Cols), New(x.Rows, x.Cols), New(x.Rows, x.Cols)
		SiLU(silu, x)
		SiLUBackward(act, dx, dy, x)
		probs := scores.Clone()
		SoftmaxRowsCausal(probs, expChunk+30)
		dLogits := New(logits.Rows, logits.Cols)
		losses = append(losses, CrossEntropy(dLogits, logits, targets))
		o.silu, o.act, o.dx, o.probs, o.dLogits = silu.Data, act.Data, dx.Data, probs.Data, dLogits.Data
		runs = append(runs, o)
	})
	if len(runs) < 2 {
		t.Skip("one leaf set on this CPU: nothing to compare")
	}
	if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
		t.Errorf("CrossEntropy loss: %v and %v", losses[0], losses[1])
	}
	a, b := runs[0], runs[1]
	for _, c := range []struct {
		name string
		x, y []float32
	}{{"SiLU", a.silu, b.silu}, {"SiLUBackward act", a.act, b.act}, {"SiLUBackward dx", a.dx, b.dx},
		{"SoftmaxRowsCausal", a.probs, b.probs}, {"CrossEntropy dLogits", a.dLogits, b.dLogits}} {
		if i := firstBitDiff(c.x, c.y); i >= 0 {
			t.Errorf("%s[%d]: %v and %v", c.name, i, c.x[i], c.y[i])
		}
	}
}

// TestExpFloor is the sigmoid leaf's floor as a gate: on a 2048-element
// vector (one slice's t×FFN of the train benchmark's decoder, 8×256) of
// gate-like inputs in [−8, 8), sigmoids must run at least 3× faster per element than
// the scalar loop it replaces, allocating nothing. The floor holds for the
// AVX2+FMA leaf; on a CPU without it the test reports the Go loop's ratio
// and skips the floor.
func TestExpFloor(t *testing.T) {
	const floor = 3
	rng := rand.New(rand.NewSource(51))
	x, dst := make([]float32, 2048), make([]float32, 2048)
	for i := range x {
		x[i] = rng.Float32()*16 - 8
	}
	scalar := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			sigmoidsGo(dst, x)
		}
	})
	leaf := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			sigmoids(dst, x)
		}
	})
	if scalar.N == 0 || leaf.N == 0 {
		t.Fatal("a benchmark failed to run")
	}
	perElem := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N) / float64(len(x))
	}
	leaves := "AVX2+FMA leaf"
	if !useExpAVX2 {
		leaves = "Go loop (no AVX2+FMA)"
	}
	ratio := perElem(scalar) / perElem(leaf)
	t.Logf("sigmoid of %d elements on the %s: scalar %.2f ns/element, sigmoids %.2f ns/element, %d allocs; %.2f× (floor %d×)",
		len(x), leaves, perElem(scalar), perElem(leaf), leaf.AllocsPerOp(), ratio, floor)
	if a := leaf.AllocsPerOp(); a != 0 {
		t.Errorf("sigmoids allocates %d times per call, want 0", a)
	}
	if !useExpAVX2 {
		t.Skipf("the floor holds for the AVX2+FMA leaf; this CPU runs the %s", leaves)
	}
	if ratio < floor {
		t.Errorf("sigmoids is %.2f× the scalar loop, want ≥ %d×", ratio, floor)
	}
}
