package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	m.RandInit(rng, 1)
	return m
}

// naiveMul is the reference implementation.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range [][3]int{{1, 1, 1}, {3, 5, 7}, {33, 17, 65}, {64, 64, 64}} {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		want := naiveMul(a, b)

		got := New(m, n)
		MatMul(got, a, b)
		if d := MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("MatMul %v: max diff %g", sz, d)
		}
		got.Zero()
		MatMulBT(got, a, transpose(b))
		if d := MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("MatMulBT %v: max diff %g", sz, d)
		}
		got.Zero()
		MatMulAT(got, transpose(a), b)
		if d := MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("MatMulAT %v: max diff %g", sz, d)
		}
	}
}

func TestMatMulAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 4, 4), randMat(rng, 4, 4)
	out := New(4, 4)
	MatMul(out, a, b)
	MatMul(out, a, b)
	want := naiveMul(a, b)
	want.Scale(2)
	if d := MaxAbsDiff(out, want); d > 1e-4 {
		t.Fatalf("accumulation broken: diff %g", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestSoftmaxCausal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randMat(rng, 4, 10) // 4 queries at absolute offset 3, 10 keys
	SoftmaxRowsCausal(s, 3)
	for q := 0; q < 4; q++ {
		var sum float64
		for j, v := range s.Row(q) {
			if j > 3+q {
				if v != 0 {
					t.Fatalf("q=%d: future position %d unmasked (%v)", q, j, v)
				}
				continue
			}
			if v < 0 || v > 1 {
				t.Fatalf("q=%d: probability %v out of range", q, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("q=%d: probabilities sum to %v", q, sum)
		}
	}
}

// TestSoftmaxBackwardNumeric checks the softmax gradient against finite
// differences through a scalar objective Σ w·p.
func TestSoftmaxBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, cols, offset = 2, 6, 1
	logits := randMat(rng, rows, cols)
	w := randMat(rng, rows, cols)

	obj := func(l *Matrix) float64 {
		p := l.Clone()
		SoftmaxRowsCausal(p, offset)
		var s float64
		for i := range p.Data {
			s += float64(p.Data[i]) * float64(w.Data[i])
		}
		return s
	}
	probs := logits.Clone()
	SoftmaxRowsCausal(probs, offset)
	grad := w.Clone()
	SoftmaxBackwardCausal(grad, probs, offset)

	const eps = 1e-3
	for idx := 0; idx < rows*cols; idx++ {
		q, j := idx/cols, idx%cols
		if j > offset+q {
			continue
		}
		plus := logits.Clone()
		plus.Data[idx] += eps
		minus := logits.Clone()
		minus.Data[idx] -= eps
		num := (obj(plus) - obj(minus)) / (2 * eps)
		if diff := math.Abs(num - float64(grad.Data[idx])); diff > 2e-3 {
			t.Fatalf("softmax grad[%d,%d]: numeric %g vs analytic %g", q, j, num, grad.Data[idx])
		}
	}
}

// TestRMSNormBackwardNumeric checks the RMSNorm gradient numerically.
func TestRMSNormBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows, cols = 3, 8
	x := randMat(rng, rows, cols)
	g := make([]float32, cols)
	for i := range g {
		g[i] = rng.Float32() + 0.5
	}
	w := randMat(rng, rows, cols)
	obj := func(x *Matrix, g []float32) float64 {
		y := New(rows, cols)
		RMSNorm(y, x, g, nil)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(w.Data[i])
		}
		return s
	}
	y := New(rows, cols)
	inv := RMSNorm(y, x, g, make([]float32, rows))
	dx := New(rows, cols)
	dg := make([]float32, cols)
	RMSNormBackward(dx, dg, w, x, g, inv)

	const eps = 1e-3
	for idx := 0; idx < rows*cols; idx++ {
		plus := x.Clone()
		plus.Data[idx] += eps
		minus := x.Clone()
		minus.Data[idx] -= eps
		num := (obj(plus, g) - obj(minus, g)) / (2 * eps)
		if diff := math.Abs(num - float64(dx.Data[idx])); diff > 5e-3 {
			t.Fatalf("rmsnorm dx[%d]: numeric %g vs analytic %g", idx, num, dx.Data[idx])
		}
	}
	for j := 0; j < cols; j++ {
		gp := append([]float32(nil), g...)
		gm := append([]float32(nil), g...)
		gp[j] += eps
		gm[j] -= eps
		num := (obj(x, gp) - obj(x, gm)) / (2 * eps)
		if diff := math.Abs(num - float64(dg[j])); diff > 5e-3 {
			t.Fatalf("rmsnorm dg[%d]: numeric %g vs analytic %g", j, num, dg[j])
		}
	}
}

// TestSiLUBackwardNumeric checks the SiLU derivative numerically, and the
// activation SiLUBackward recomputes against SiLU's bit for bit.
func TestSiLUBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randMat(rng, 2, 5)
	dy := randMat(rng, 2, 5)
	dx, act, want := New(2, 5), New(2, 5), New(2, 5)
	SiLUBackward(act, dx, dy, x)
	SiLU(want, x)
	if i := firstBitDiff(act.Data, want.Data); i >= 0 {
		t.Fatalf("silu[%d]: SiLUBackward %v, SiLU %v", i, act.Data[i], want.Data[i])
	}
	const eps = 1e-3
	for i := range x.Data {
		f := func(v float32) float64 {
			return float64(v * sigmoid(v))
		}
		num := (f(x.Data[i]+eps) - f(x.Data[i]-eps)) / (2 * eps) * float64(dy.Data[i])
		if math.Abs(num-float64(dx.Data[i])) > 2e-3 {
			t.Fatalf("silu grad[%d]: numeric %g vs analytic %g", i, num, dx.Data[i])
		}
	}
}

// TestCrossEntropyGradNumeric validates dLogits against finite differences.
func TestCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logits := randMat(rng, 3, 6)
	targets := []int{2, 5, -1} // last row masked
	grad := New(3, 6)
	CrossEntropy(grad, logits, targets)
	const eps = 1e-3
	for i := range logits.Data {
		plus := logits.Clone()
		plus.Data[i] += eps
		minus := logits.Clone()
		minus.Data[i] -= eps
		scratch := New(3, 6)
		num := (CrossEntropy(scratch, plus, targets) - CrossEntropy(scratch, minus, targets)) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 2e-3 {
			t.Fatalf("CE grad[%d]: numeric %g vs analytic %g", i, num, grad.Data[i])
		}
	}
	// Masked rows contribute nothing.
	for j := 0; j < 6; j++ {
		if grad.At(2, j) != 0 {
			t.Fatal("masked row has gradient")
		}
	}
}

// TestTransposeProperty: (A·B)ᵀ == Bᵀ·Aᵀ under the kernels.
func TestTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := r.Intn(12)+1, r.Intn(12)+1, r.Intn(12)+1
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		ab := New(m, n)
		MatMul(ab, a, b)
		btat := New(n, m)
		MatMul(btat, transpose(b), transpose(a))
		return MaxAbsDiff(transpose(ab), btat) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHelpers(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases storage")
	}
	m2 := New(2, 3)
	m2.CopyFrom(m)
	m2.Add(m)
	if m2.At(1, 2) != 10 {
		t.Fatal("Add broken")
	}
	m2.Scale(0.5)
	if m2.At(1, 2) != 5 {
		t.Fatal("Scale broken")
	}
	m2.Zero()
	if m2.At(1, 2) != 0 {
		t.Fatal("Zero broken")
	}
	if !math.IsInf(MaxAbsDiff(New(1, 2), New(2, 1)), 1) {
		t.Fatal("MaxAbsDiff shape mismatch should be +Inf")
	}
}
