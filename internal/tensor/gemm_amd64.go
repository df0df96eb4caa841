package tensor

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers.
func hasAVX2() bool

// hasAVX512 reports whether the CPU has AVX512F and the OS saves the
// opmask and ZMM registers.
func hasAVX512() bool

// useAVX2 routes the kernels to the AVX2 leaves of gemm_amd64.s. Without
// AVX2 they run the Go loops of gemm.go, ops.go and tensor.go, the same
// loops that are the leaves' differential oracles.
var useAVX2 = hasAVX2()

// useAVX512 routes MatMul and MatMulAT to panel4x32, whose 32-column
// blocks fill ZMM registers; everything else stays on the AVX2 leaves.
var useAVX512 = useAVX2 && hasAVX512()

// axpyAVX2 computes dst[j] += a·x[j] for j < len(x); dst must be at least
// as long as x.
//
//go:noescape
func axpyAVX2(dst, x []float32, a float32)

// panel4x16 adds a·b into a 4-row panel of dst, n8 blocks of eight columns
// wide, over k steps. Step t adds a[t·lda+r]·b[t·ldb+l] into dst[r·ldd+l]
// for r < 4 and l < 8n8, skipping row r when a[t·lda+r] is ±0. Each
// element's accumulator starts from dst and takes one rounded multiply and
// one rounded add per step in ascending t, the sequence axpy gives it, so
// the result is bitwise identical to the axpy loops. Strides are in
// floats; the caller guarantees every slice covers what the steps read.
//
//go:noescape
func panel4x16(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)

// panel4x16Packed is panel4x16 with the four rows of a stored row-major:
// step t reads a[r·lda+t]. k must not exceed packK.
//
//go:noescape
func panel4x16Packed(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)

// panel4x32 is panel4x16 on ZMM registers: 32 columns per block, then
// one 16-column block, then a last 8-column block on panel4x16.
//
//go:noescape
func panel4x32(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)

// panel4x32Packed is panel4x16Packed calling panel4x32.
//
//go:noescape
func panel4x32Packed(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)

// panelBT adds a·bᵀ into h ≤ 8 rows of dst, n8 blocks of eight columns
// wide: dst[r·ldd+l] += Σ_t a[r·lda+t]·b[l·ldb+t] for r < h and l < 8n8,
// the sum in one accumulator that starts at +0 and takes one rounded
// multiply and one rounded add per step in ascending t, as in
// NaiveMatMulBT. Strides are in floats.
//
//go:noescape
func panelBT(dst []float32, ldd int, a []float32, lda, h int, b []float32, ldb, k, n8 int)

// mulAVX2, mulAddAVX2, addAVX2 and scaleAVX2 are mulGo, mulAddGo, addGo
// and scaleGo over len(dst) elements; every operand must be exactly as
// long as dst.
//
//go:noescape
func mulAVX2(dst, a, b []float32)

//go:noescape
func mulAddAVX2(dst, a, b []float32)

//go:noescape
func addAVX2(dst, src []float32)

//go:noescape
func scaleAVX2(dst []float32, a float32)

// packK is the k extent of one packed 4-row panel of a in matMulRange
// (panel4x16Packed's frame holds 4·packK floats).
const packK = 256

// axpy computes dst += a·x.
func axpy(dst, x []float32, a float32) {
	if useAVX2 {
		axpyAVX2(dst[:len(x)], x, a)
		return
	}
	axpyGo(dst, x, a)
}

// mul sets dst[i] = a[i]·b[i] for i < len(dst).
func mul(dst, a, b []float32) {
	if useAVX2 {
		mulAVX2(dst, a[:len(dst)], b[:len(dst)])
		return
	}
	mulGo(dst, a, b)
}

// mulAdd adds a[i]·b[i] into dst[i] for i < len(dst).
func mulAdd(dst, a, b []float32) {
	if useAVX2 {
		mulAddAVX2(dst, a[:len(dst)], b[:len(dst)])
		return
	}
	mulAddGo(dst, a, b)
}

// add adds src[i] into dst[i] for i < len(dst).
func add(dst, src []float32) {
	if useAVX2 {
		addAVX2(dst, src[:len(dst)])
		return
	}
	addGo(dst, src)
}

// scale multiplies every element of dst by a.
func scale(dst []float32, a float32) {
	if useAVX2 {
		scaleAVX2(dst, a)
		return
	}
	scaleGo(dst, a)
}

// matMulRange runs panel4x32Packed (panel4x16Packed without AVX-512) over
// every 4-row block of [i0, i1) and every 8-column block of dst, packK
// steps at a time; the accumulators reload from dst between chunks, which
// keeps k ascending. The leftover columns and rows take the axpy loops of
// matMulCols.
func matMulRange(dst, a, b *Matrix, i0, i1 int) {
	if !useAVX2 {
		matMulCols(dst, a, b, i0, i1, 0)
		return
	}
	k, n := a.Cols, b.Cols
	w := n &^ 7
	i4 := i0 + (i1-i0)&^3
	if w > 0 {
		for i := i0; i < i4; i += 4 {
			for k0 := 0; k0 < k; k0 += packK {
				if useAVX512 {
					panel4x32Packed(dst.Data[i*n:], n, a.Data[i*k+k0:], k, b.Data[k0*n:], n, min(packK, k-k0), w/8)
				} else {
					panel4x16Packed(dst.Data[i*n:], n, a.Data[i*k+k0:], k, b.Data[k0*n:], n, min(packK, k-k0), w/8)
				}
			}
		}
	}
	matMulCols(dst, a, b, i0, i4, w)
	matMulCols(dst, a, b, i4, i1, 0)
}

// matMulATRange runs panel4x32 (panel4x16 without AVX-512) over every
// 4-row block of [i0, i1) and every 8-column block of dst, reading the
// block's four a values of each step in place (a[t][i:i+4] is contiguous).
// The leftover columns and rows take the axpy loops of matMulATCols.
func matMulATRange(dst, a, b *Matrix, i0, i1 int) {
	if !useAVX2 {
		matMulATCols(dst, a, b, i0, i1, 0)
		return
	}
	k, m, n := a.Rows, a.Cols, b.Cols
	w := n &^ 7
	i4 := i0 + (i1-i0)&^3
	if w > 0 && k > 0 {
		for i := i0; i < i4; i += 4 {
			if useAVX512 {
				panel4x32(dst.Data[i*n:], n, a.Data[i:], m, b.Data, n, k, w/8)
			} else {
				panel4x16(dst.Data[i*n:], n, a.Data[i:], m, b.Data, n, k, w/8)
			}
		}
	}
	matMulATCols(dst, a, b, i0, i4, w)
	matMulATCols(dst, a, b, i4, i1, 0)
}

// matMulBTRange runs panelBT over every 8-row block of [i0, i1) and every
// group of eight b rows; the leftover columns take the dot-product loops
// of matMulBTCols.
func matMulBTRange(dst, a, b *Matrix, i0, i1 int) {
	if !useAVX2 {
		matMulBTCols(dst, a, b, i0, i1, 0)
		return
	}
	k, n := a.Cols, b.Rows
	w := n &^ 7
	if w > 0 {
		for i := i0; i < i1; i += 8 {
			panelBT(dst.Data[i*n:], n, a.Data[i*k:], k, min(8, i1-i), b.Data, k, k, w/8)
		}
	}
	matMulBTCols(dst, a, b, i0, i1, w)
}
