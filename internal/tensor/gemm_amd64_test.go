package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestAxpySSEMatchesGo diffs the assembly axpy against the Go loop it
// replaces, bit for bit, at lengths 0–67 and every 4-byte misalignment of
// both slices. The whole buffer is compared, so a store past len(x) fails.
func TestAxpySSEMatchesGo(t *testing.T) {
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
					axpySSE(got[do:do+n], x[xo:xo+n], a)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("a=%v n=%d offsets x+%d dst+%d: element %d: asm %v go %v",
							a, n, xo, do, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMatMulBTRangeMatchesGo diffs the dotPanel4 path of matMulBTRange
// against matMulBTRangeGo, bit for bit, at reduction lengths 0–67 (every
// tail of the 4-step loop) with a and b at misaligned offsets, and with
// 5×6 outputs so both the row and the column edge take the padded block.
func TestMatMulBTRangeMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const m, n = 5, 6
	at := func(buf []float32, off, r, c int) *Matrix {
		return &Matrix{Rows: r, Cols: c, Data: buf[off : off+r*c]}
	}
	for k := 0; k <= 67; k++ {
		abuf := zeroMat(rng, 1, m*k+3).Data
		bbuf := zeroMat(rng, 1, n*k+3).Data
		for off := 0; off < 4; off++ {
			a, b := at(abuf, off, m, k), at(bbuf, 3-off, n, k)
			want := zeroMat(rng, m, n)
			got := want.Clone()
			matMulBTRangeGo(want, a, b, 0, m)
			matMulBTRange(got, a, b, 0, m)
			if i := firstBitDiff(got.Data, want.Data); i >= 0 {
				t.Fatalf("k=%d offset %d: element %d: asm %v go %v", k, off, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPanel4x8MatchesGo diffs the micro-kernel paths of matMulRange and
// matMulATRange against the naive oracles — the scalar Go loops axpyGo
// unrolls — bit for bit. It covers every rows mod 4 and columns mod 8
// tail, k from 0 to 67 plus one k past a packed chunk, every 4-byte
// misalignment of the operands, stores outside dst, ±0 in a and in the
// pre-filled dst, and ±Inf and NaN in b: NaN at a step whose a values
// are all ±0 (the masked path must skip every row), ±Inf at a step where
// only some are (the skipped rows stay finite).
func TestPanel4x8MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	at := func(r, c, off int) *Matrix {
		buf := zeroMat(rng, 1, r*c+off).Data
		return &Matrix{Rows: r, Cols: c, Data: buf[off:]}
	}
	ks := []int{packK + 5}
	for k := 0; k <= 67; k++ {
		ks = append(ks, k)
	}
	for _, k := range ks {
		for m := 1; m <= 8; m++ {
			for n := 1; n <= 17; n++ {
				off := (k + m + n) % 4
				for _, kind := range []gemmKind{kindMM, kindAT} {
					name, run, ref := "MatMul", matMulRange, NaiveMatMul
					a := at(m, k, off)
					// av(kk, i) is a's value at step kk for dst row i.
					av := func(kk, i int) *float32 { return &a.Data[i*k+kk] }
					if kind == kindAT {
						name, run, ref = "MatMulAT", matMulATRange, NaiveMatMulAT
						a = at(k, m, off)
						av = func(kk, i int) *float32 { return &a.Data[kk*m+i] }
					}
					b := at(k, n, 3-off)
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
					// dst sits inside a larger buffer, compared whole, so
					// a store outside the matrix fails too.
					doff := (off + 1) % 4
					wbuf := zeroMat(rng, 1, m*n+8).Data
					gbuf := slices.Clone(wbuf)
					ref(&Matrix{Rows: m, Cols: n, Data: wbuf[doff : doff+m*n]}, a, b)
					run(&Matrix{Rows: m, Cols: n, Data: gbuf[doff : doff+m*n]}, a, b, 0, m)
					if i := firstBitDiff(gbuf, wbuf); i >= 0 {
						t.Fatalf("%s m=%d k=%d n=%d offset %d: element %d: kernel %v go %v",
							name, m, k, n, off, i, gbuf[i], wbuf[i])
					}
				}
			}
		}
	}
}

// TestGEMMFloor is the serial GEMM floor as a gate: on
// BenchmarkDecoderSlice's mix, MatMul and MatMulAT on a one-worker pool
// must each run at least 4.5× faster than their naive oracles, allocating
// nothing.
func TestGEMMFloor(t *testing.T) {
	serial := NewPool(KernelConfig{Workers: 1})
	defer serial.Close()
	kernels := []struct {
		name        string
		naive, fast func(decoderLayer)
	}{
		{"MatMul",
			func(l decoderLayer) { NaiveMatMul(l.y, l.x, l.w) },
			func(l decoderLayer) { serial.MatMul(l.y, l.x, l.w) }},
		{"MatMulAT",
			func(l decoderLayer) { NaiveMatMulAT(l.dw, l.x, l.dy) },
			func(l decoderLayer) { serial.MatMulAT(l.dw, l.x, l.dy) }},
	}
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	for _, kern := range kernels {
		naive := testing.Benchmark(func(b *testing.B) { benchDecoder(b, decoderMix, 1, kern.naive) })
		fast := testing.Benchmark(func(b *testing.B) { benchDecoder(b, decoderMix, 1, kern.fast) })
		if naive.N == 0 || fast.N == 0 {
			t.Fatalf("%s: a benchmark failed to run", kern.name)
		}
		ratio := perOp(naive) / perOp(fast)
		t.Logf("%s mix: naive %.0f ns, serial %.0f ns, %d allocs; %.2f×",
			kern.name, perOp(naive), perOp(fast), fast.AllocsPerOp(), ratio)
		if a := fast.AllocsPerOp(); a != 0 {
			t.Errorf("%s allocates %d times per mix, want 0", kern.name, a)
		}
		if ratio < 4.5 {
			t.Errorf("%s is %.2f× its naive oracle on the decoder mix, want ≥ 4.5×", kern.name, ratio)
		}
	}
}
