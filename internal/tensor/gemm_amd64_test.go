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
