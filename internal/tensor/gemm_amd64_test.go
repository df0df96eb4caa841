package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// WithLeaves runs f once per leaf set this CPU can run, as a subtest: the
// AVX2 leaves ("avx2", when hasAVX2 reports them; the exp leaves too when
// hasFMA does) and the Go loops ("go"), with useAVX2 and useExpAVX2 set to
// match and restored afterwards. The external test package uses it too.
func WithLeaves(t *testing.T, f func(t *testing.T)) {
	defer func(gemm, exp bool) { useAVX2, useExpAVX2 = gemm, exp }(useAVX2, useExpAVX2)
	for _, set := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"go", false}} {
		if set.avx2 && !hasAVX2() {
			t.Log("this CPU has no AVX2: only the Go loops run")
			continue
		}
		useAVX2 = set.avx2
		useExpAVX2 = set.avx2 && hasFMA()
		t.Run(set.name, f)
	}
}

// TestAxpyAVX2MatchesGo diffs the assembly axpy against the Go loop it
// replaces, bit for bit, at lengths 0–67 and every 4-byte misalignment of
// both slices. The whole buffer is compared, so a store past len(x) fails.
func TestAxpyAVX2MatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("this CPU has no AVX2: axpy runs axpyGo")
	}
	rng := rand.New(rand.NewSource(45))
	const size = 72
	x := zeroMat(rng, 1, size).Data
	dst := zeroMat(rng, 1, size).Data
	for _, a := range []float32{rng.Float32()*2 - 1, 0, float32(math.Copysign(0, -1))} {
		for n := 0; n <= 67; n++ {
			for xo := 0; xo < 4; xo++ {
				for do := 0; do < 4; do++ {
					want, got := slices.Clone(dst), slices.Clone(dst)
					axpyGo(want[do:do+n], x[xo:xo+n], a)
					axpyAVX2(got[do:do+n], x[xo:xo+n], a)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("a=%v n=%d offsets x+%d dst+%d: element %d: asm %v go %v",
							a, n, xo, do, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// leafShapes calls f with the shapes of the leaf tests: k from 0 to 67
// (every tail of the 8-step loops) plus one k past a packed chunk of
// MatMul and of MatMulBT, rows 1–17 and columns 1–33. Each k takes the
// third of the rows × columns grid with m + n + k ≡ 0 (mod 3), so every
// (m, n) pair still meets every k mod 8 tail; off is the shape's operand
// misalignment in floats.
func leafShapes(f func(m, k, n, off int)) {
	ks := []int{packK + 5}
	for k := 0; k <= 67; k++ {
		ks = append(ks, k)
	}
	for _, k := range ks {
		for m := 1; m <= 17; m++ {
			for n := 1; n <= 33; n++ {
				if (m+n+k)%3 == 0 {
					f(m, k, n, (k+m+n)%4)
				}
			}
		}
	}
}

// leafData hands out operands cut from one pre-drawn zeroMat buffer at
// random starts, so the leaf tests' tens of thousands of shapes do not
// each draw fresh random numbers.
type leafData struct {
	rng  *rand.Rand
	pool []float32
}

func newLeafData(seed int64) *leafData {
	rng := rand.New(rand.NewSource(seed))
	return &leafData{rng, zeroMat(rng, 1, 1<<15).Data}
}

// buf returns n floats of the pool, copied.
func (d *leafData) buf(n int) []float32 {
	i := d.rng.Intn(len(d.pool) - n + 1)
	return slices.Clone(d.pool[i : i+n])
}

// mat returns an r×c operand whose data starts off floats into its
// allocation, so it is misaligned by 4·off bytes.
func (d *leafData) mat(r, c, off int) *Matrix {
	return &Matrix{Rows: r, Cols: c, Data: d.buf(r*c + off)[off:]}
}

// leafCase runs one kernel on one shape and diffs it against its naive
// oracle. a and b sit at misaligned offsets; dst sits inside a larger
// buffer, compared whole, so a store outside the matrix fails too.
func leafCase(t *testing.T, d *leafData, name string, m, k, n, off int, a, b *Matrix, run func(dst, a, b *Matrix, i0, i1 int), ref func(dst, a, b *Matrix)) {
	t.Helper()
	doff := (off + 1) % 4
	wbuf := d.buf(m*n + 8)
	gbuf := slices.Clone(wbuf)
	ref(&Matrix{Rows: m, Cols: n, Data: wbuf[doff : doff+m*n]}, a, b)
	run(&Matrix{Rows: m, Cols: n, Data: gbuf[doff : doff+m*n]}, a, b, 0, m)
	if i := firstBitDiff(gbuf, wbuf); i >= 0 {
		t.Fatalf("%s m=%d k=%d n=%d offset %d: element %d: kernel %v naive %v",
			name, m, k, n, off, i, gbuf[i], wbuf[i])
	}
}

// TestMatMulBTRangeMatchesGo diffs matMulBTRange against NaiveMatMulBT,
// bit for bit, on both leaf sets: every row count 1–17 (every tail of
// panelBT's 8-row block), every column count 1–33 (every tail of its
// 4-column groups), k 0–67 and one k past the panel's btK steps, a and b
// at misaligned offsets, stores outside dst, ±0 in a and dst, and ±Inf or
// NaN at one step of every fourth b row.
func TestMatMulBTRangeMatchesGo(t *testing.T) {
	WithLeaves(t, func(t *testing.T) {
		d := newLeafData(46)
		inf := float32(math.Inf(1))
		leafShapes(func(m, k, n, off int) {
			a, b := d.mat(m, k, off), d.mat(n, k, 3-off)
			// One b row in four, so the other columns stay finite.
			for j := 1; j < n && k >= 2; j += 4 {
				b.Data[j*k+k/2] = [3]float32{inf, -inf, float32(math.NaN())}[j/4%3]
			}
			leafCase(t, d, "MatMulBT", m, k, n, off, a, b, matMulBTRange, NaiveMatMulBT)
		})
	})
}

// TestPanel4x16MatchesGo diffs matMulRange and matMulATRange against the
// naive oracles — the scalar Go loops axpyGo unrolls — bit for bit, on
// both leaf sets. It covers every row count 1–17 (rows mod 4 tails), every
// column count 1–33 (the 16-column blocks, the 8-column block and the
// axpy tail), k from 0 to 67 plus one k past a packed chunk, misaligned
// operands, stores outside dst, ±0 in a and in the pre-filled dst, and ±Inf
// and NaN in b: NaN at a step whose a values are all ±0 (the masked path
// must skip every row), ±Inf at a step where only some are (the skipped
// rows stay finite).
func TestPanel4x16MatchesGo(t *testing.T) {
	WithLeaves(t, func(t *testing.T) {
		d := newLeafData(47)
		negZero := float32(math.Copysign(0, -1))
		inf := float32(math.Inf(1))
		leafShapes(func(m, k, n, off int) {
			for _, kind := range []gemmKind{kindMM, kindAT} {
				name, run, ref := "MatMul", matMulRange, NaiveMatMul
				a := d.mat(m, k, off)
				// av(kk, i) is a's value at step kk for dst row i.
				av := func(kk, i int) *float32 { return &a.Data[i*k+kk] }
				if kind == kindAT {
					name, run, ref = "MatMulAT", matMulATRange, NaiveMatMulAT
					a = d.mat(k, m, off)
					av = func(kk, i int) *float32 { return &a.Data[kk*m+i] }
				}
				b := d.mat(k, n, 3-off)
				if k >= 2 {
					nan, part := k/2, k/2-1
					for i := 0; i < m; i++ {
						*av(nan, i) = [2]float32{0, negZero}[i%2]
						if i%2 == 0 {
							*av(part, i) = negZero
						}
					}
					for j := 0; j < n; j++ {
						b.Data[nan*n+j] = float32(math.NaN())
						b.Data[part*n+j] = [2]float32{inf, -inf}[j%2]
					}
				}
				leafCase(t, d, name, m, k, n, off, a, b, run, ref)
			}
		})
	})
}

// TestGEMMFloor is the serial GEMM floor as a gate: on
// BenchmarkDecoderSlice's mix, MatMul, MatMulBT, MatMulAT and the three
// together on a one-worker pool must each run at least their floor times
// faster than their naive oracles, allocating nothing. The floors hold for
// the AVX2 leaves; on a CPU without AVX2 the test reports the Go loops'
// ratios and skips them.
func TestGEMMFloor(t *testing.T) {
	serial := NewPool(KernelConfig{Workers: 1})
	defer serial.Close()
	kernels := []struct {
		name        string
		gemms       int
		floor       float64
		naive, fast func(decoderLayer)
	}{
		{"MatMul", 1, 10,
			func(l decoderLayer) { NaiveMatMul(l.y, l.x, l.w) },
			func(l decoderLayer) { serial.MatMul(l.y, l.x, l.w) }},
		{"MatMulBT", 1, 8,
			func(l decoderLayer) { NaiveMatMulBT(l.dx, l.dy, l.w) },
			func(l decoderLayer) { serial.MatMulBT(l.dx, l.dy, l.w) }},
		{"MatMulAT", 1, 11,
			func(l decoderLayer) { NaiveMatMulAT(l.dw, l.x, l.dy) },
			func(l decoderLayer) { serial.MatMulAT(l.dw, l.x, l.dy) }},
		{"all", 3, 9,
			func(l decoderLayer) {
				NaiveMatMul(l.y, l.x, l.w)
				NaiveMatMulBT(l.dx, l.dy, l.w)
				NaiveMatMulAT(l.dw, l.x, l.dy)
			},
			func(l decoderLayer) {
				serial.MatMul(l.y, l.x, l.w)
				serial.MatMulBT(l.dx, l.dy, l.w)
				serial.MatMulAT(l.dw, l.x, l.dy)
			}},
	}
	leaves := "AVX2 leaves"
	if !useAVX2 {
		leaves = "Go loops (no AVX2)"
	}
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	for _, kern := range kernels {
		naive := testing.Benchmark(func(b *testing.B) { benchDecoder(b, decoderMix, kern.gemms, kern.naive) })
		fast := testing.Benchmark(func(b *testing.B) { benchDecoder(b, decoderMix, kern.gemms, kern.fast) })
		if naive.N == 0 || fast.N == 0 {
			t.Fatalf("%s: a benchmark failed to run", kern.name)
		}
		ratio := perOp(naive) / perOp(fast)
		t.Logf("%s mix on the %s: naive %.0f ns, serial %.0f ns, %d allocs; %.2f× (floor %.1f×)",
			kern.name, leaves, perOp(naive), perOp(fast), fast.AllocsPerOp(), ratio, kern.floor)
		if a := fast.AllocsPerOp(); a != 0 {
			t.Errorf("%s allocates %d times per mix, want 0", kern.name, a)
		}
		if useAVX2 && ratio < kern.floor {
			t.Errorf("%s is %.2f× its naive oracle on the decoder mix, want ≥ %.1f×", kern.name, ratio, kern.floor)
		}
	}
	if !useAVX2 {
		t.Skipf("the floors hold for the AVX2 leaves; this CPU runs the %s", leaves)
	}
}
