package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemmCase builds operands of one logical m×k·k×n product for each variant.
type gemmCase struct {
	name string
	run  func(dst, a, b *Matrix) // kernel under test (shared pool)
	ref  func(dst, a, b *Matrix) // naive oracle
	pool func(p *Pool, dst, a, b *Matrix)
	// shape maps (m, k, n) to the (a, b) operand shapes of this variant.
	shape func(m, k, n int) (ar, ac, br, bc int)
	out   func(m, k, n int) (dr, dc int)
}

func gemmCases() []gemmCase {
	return []gemmCase{
		{
			name: "MatMul",
			run:  MatMul, ref: NaiveMatMul,
			pool:  func(p *Pool, d, a, b *Matrix) { p.MatMul(d, a, b) },
			shape: func(m, k, n int) (int, int, int, int) { return m, k, k, n },
			out:   func(m, k, n int) (int, int) { return m, n },
		},
		{
			name: "MatMulBT",
			run:  MatMulBT, ref: NaiveMatMulBT,
			pool:  func(p *Pool, d, a, b *Matrix) { p.MatMulBT(d, a, b) },
			shape: func(m, k, n int) (int, int, int, int) { return m, k, n, k },
			out:   func(m, k, n int) (int, int) { return m, n },
		},
		{
			name: "MatMulAT",
			run:  MatMulAT, ref: NaiveMatMulAT,
			pool:  func(p *Pool, d, a, b *Matrix) { p.MatMulAT(d, a, b) },
			shape: func(m, k, n int) (int, int, int, int) { return k, m, k, n },
			out:   func(m, k, n int) (int, int) { return m, n },
		},
	}
}

// zeroMat is randMat with about a quarter of the entries exact zeros, half
// of them -0: in operands they take the kernels' zero-skip path, in a
// pre-filled dst they pin how signed zeros accumulate.
func zeroMat(rng *rand.Rand, r, c int) *Matrix {
	m := randMat(rng, r, c)
	negZero := float32(math.Copysign(0, -1))
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = negZero
		}
	}
	return m
}

// firstBitDiff returns the first index at which got and want differ in bit
// pattern (so +0 and -0 differ), or -1 when they are bitwise identical.
func firstBitDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestGemmEdgeShapes runs every variant over shapes that stress tile and
// SIMD boundaries: non-divisible dims, single rows/columns, k == 1, an
// empty reduction, the decoder's 8-row slice shapes (MatMul's 8 rows and
// MatMulAT's 8-row reduction), and every m, k, n in 1–9 (the tails of the
// 4- and 8-wide SIMD loops).
func TestGemmEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {1, 5, 9}, {9, 5, 1}, // 1×N and N×1
		{31, 33, 35}, {33, 31, 37}, // straddle the default 32-row tile
		{65, 3, 129}, {2, 1, 2},
		{64, 64, 64}, {100, 100, 100}, // divisible and not
		{3, 0, 5}, // dst += 0
	}
	for _, k := range []int{16, 64, 256} {
		for _, n := range []int{16, 64, 256} {
			shapes = append(shapes, [3]int{8, k, n})
		}
	}
	for _, m := range []int{64, 256} {
		for _, n := range []int{64, 256} {
			shapes = append(shapes, [3]int{m, 8, n})
		}
	}
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 9; k++ {
			for n := 1; n <= 9; n++ {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	for _, c := range gemmCases() {
		for _, sz := range shapes {
			m, k, n := sz[0], sz[1], sz[2]
			ar, ac, br, bc := c.shape(m, k, n)
			a, b := zeroMat(rng, ar, ac), zeroMat(rng, br, bc)
			dr, dc := c.out(m, k, n)
			want := zeroMat(rng, dr, dc)
			got := want.Clone()
			c.ref(want, a, b)
			c.run(got, a, b)
			if i := firstBitDiff(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s %v: element %d: got %v want %v (not bitwise identical)",
					c.name, sz, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmBitwiseSerialVsParallel: the same multiplication through a
// 1-worker pool, an 8-worker pool with an odd row tile, and the naive
// reference must be bitwise identical — the determinism contract of the
// kernels.
func TestGemmBitwiseSerialVsParallel(t *testing.T) {
	serial := NewPool(KernelConfig{Workers: 1})
	defer serial.Close()
	// TileM 5 forces uneven tile ownership, and every tile ends in a row
	// edge of the 4-row micro-kernel. The FLOP cutoff is bypassed by sizing
	// the product above it.
	wide := NewPool(KernelConfig{Workers: 8, TileM: 5})
	defer wide.Close()

	rng := rand.New(rand.NewSource(42))
	for _, c := range gemmCases() {
		for trial := 0; trial < 4; trial++ {
			m := rng.Intn(90) + 40
			k := rng.Intn(90) + 40
			n := rng.Intn(90) + 40
			ar, ac, br, bc := c.shape(m, k, n)
			a, b := zeroMat(rng, ar, ac), zeroMat(rng, br, bc)
			dr, dc := c.out(m, k, n)

			want := zeroMat(rng, dr, dc)
			one, eight := want.Clone(), want.Clone()
			c.ref(want, a, b)
			c.pool(serial, one, a, b)
			c.pool(wide, eight, a, b)
			i := firstBitDiff(one.Data, want.Data)
			if i < 0 {
				i = firstBitDiff(eight.Data, want.Data)
			}
			if i >= 0 {
				t.Fatalf("%s %dx%dx%d trial %d: element %d diverges: naive %v serial %v parallel %v",
					c.name, m, k, n, trial, i, want.Data[i], one.Data[i], eight.Data[i])
			}
		}
	}
}

// TestShapePanicMessages pins the exact panic text of every shape check, so
// error output stays stable for operators grepping logs.
func TestShapePanicMessages(t *testing.T) {
	cases := []struct {
		name string
		f    func()
		want string
	}{
		{"matmul", func() { MatMul(New(2, 2), New(2, 3), New(4, 2)) },
			"tensor: matmul shape mismatch (2x3)·(4x2)->(2x2)"},
		{"matmulBT", func() { MatMulBT(New(2, 2), New(2, 3), New(2, 4)) },
			"tensor: matmulBT shape mismatch (2x3)·(2x4)T->(2x2)"},
		{"matmulAT", func() { MatMulAT(New(2, 2), New(3, 2), New(2, 2)) },
			"tensor: matmulAT shape mismatch (3x2)T·(2x2)->(2x2)"},
		{"copy", func() { New(1, 2).CopyFrom(New(2, 1)) },
			"tensor: copy shape mismatch (1x2)<-(2x1)"},
		{"add", func() { New(1, 2).Add(New(2, 1)) },
			"tensor: add shape mismatch (1x2)+=(2x1)"},
		{"append", func() { New(1, 2).AppendRows(New(2, 3)) },
			"tensor: append shape mismatch (1x2)<<(2x3)"},
		{"mul", func() { Mul(New(1, 2), New(1, 4), New(1, 2)) },
			"tensor: mul shape mismatch (1x4)⊙(1x2)->(1x2)"},
		{"mulAdd", func() { MulAdd(New(2, 2), New(2, 2), New(4, 1)) },
			"tensor: mulAdd shape mismatch (2x2)⊙(4x1)->(2x2)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("no panic")
				}
				if got := fmt.Sprint(p); got != c.want {
					t.Fatalf("panic message:\n got %q\nwant %q", got, c.want)
				}
			}()
			c.f()
		})
	}
}

// TestConfigureSharedPool: replacing the shared pool keeps the package-level
// kernels correct and CurrentConfig in sync.
func TestConfigureSharedPool(t *testing.T) {
	old := CurrentConfig()
	defer Configure(old)
	got := Configure(KernelConfig{Workers: 3, TileM: 7})
	if got.Workers != 3 || got.TileM != 7 {
		t.Fatalf("Configure did not apply: %+v", got)
	}
	if CurrentConfig() != got {
		t.Fatalf("CurrentConfig %+v != configured %+v", CurrentConfig(), got)
	}
	rng := rand.New(rand.NewSource(43))
	a, b := randMat(rng, 70, 70), randMat(rng, 70, 70)
	want := New(70, 70)
	NaiveMatMul(want, a, b)
	gotM := New(70, 70)
	MatMul(gotM, a, b)
	if d := MaxAbsDiff(want, gotM); d != 0 {
		t.Fatalf("configured pool diverges from naive by %g", d)
	}
}
