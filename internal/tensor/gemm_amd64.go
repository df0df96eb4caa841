package tensor

// axpySSE computes dst[j] += a·x[j] for j < len(x); dst must be at least as
// long as x.
//
//go:noescape
func axpySSE(dst, x []float32, a float32)

// dotPanel4 sets acc[4r+l] to the dot product of a_r and b_l for r, l < 4:
// an accumulator starting at zero that adds a_r[k]·b_l[k] in ascending k,
// one rounded multiply and one rounded add per step. len(a0) is the k
// extent; every other row must be at least as long.
//
//go:noescape
func dotPanel4(acc *[16]float32, a0, a1, a2, a3, b0, b1, b2, b3 []float32)

// panel4x8 adds a·b into a 4-row panel of dst, n8 blocks of eight
// columns wide, over k steps. Step t adds a[t·lda+r]·b[t·ldb+l] into
// dst[r·ldd+l] for r < 4 and l < 8n8, skipping row r when a[t·lda+r] is ±0.
// Each element's accumulator starts from dst and takes one rounded multiply
// and one rounded add per step in ascending t, the sequence axpy gives it,
// so the result is bitwise identical to the axpy loops. Strides are in
// floats; the caller guarantees every slice covers what the steps read.
//
//go:noescape
func panel4x8(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k, n8 int)

// packK is the k extent of one packed 4-row panel of a in matMulRange.
const packK = 256

// axpy computes dst += a·x.
func axpy(dst, x []float32, a float32) { axpySSE(dst[:len(x)], x, a) }

// matMulRange runs panel4x8 over every 4-row block of [i0, i1) and every
// 8-column block of dst. The block's rows of a are strided, so they are
// packed transposed, packK steps at a time, into a stack buffer; the
// accumulators reload from dst between chunks, which keeps k ascending.
// The leftover columns and rows take the axpy loops of matMulCols.
func matMulRange(dst, a, b *Matrix, i0, i1 int) {
	k, n := a.Cols, b.Cols
	w := n &^ 7
	i4 := i0 + (i1-i0)&^3
	if w > 0 {
		var pack [4 * packK]float32
		for i := i0; i < i4; i += 4 {
			for k0 := 0; k0 < k; k0 += packK {
				kc := min(packK, k-k0)
				for r := 0; r < 4; r++ {
					for t, v := range a.Data[(i+r)*k+k0 : (i+r)*k+k0+kc] {
						pack[4*t+r] = v
					}
				}
				panel4x8(dst.Data[i*n:], n, pack[:], 4, b.Data[k0*n:], n, kc, w/8)
			}
		}
	}
	matMulCols(dst, a, b, i0, i4, w)
	matMulCols(dst, a, b, i4, i1, 0)
}

// matMulATRange runs panel4x8 over every 4-row block of [i0, i1) and every
// 8-column block of dst, reading the block's four a values of each step in
// place (a[t][i:i+4] is contiguous). The leftover columns and rows take the
// axpy loops of matMulATCols.
func matMulATRange(dst, a, b *Matrix, i0, i1 int) {
	k, m, n := a.Rows, a.Cols, b.Cols
	w := n &^ 7
	i4 := i0 + (i1-i0)&^3
	if w > 0 && k > 0 {
		for i := i0; i < i4; i += 4 {
			panel4x8(dst.Data[i*n:], n, a.Data[i:], m, b.Data, n, k, w/8)
		}
	}
	matMulATCols(dst, a, b, i0, i4, w)
	matMulATCols(dst, a, b, i4, i1, 0)
}

// matMulBTRange tiles dst into 4×4 blocks, each one dotPanel4 call: the
// block's dot products run in independent accumulator lanes over the whole
// k extent and are then added into dst — the order of matMulBTRangeGo, so
// the result is bitwise identical. Panels of b are the outer loop, so four
// b rows stay cached while the row range of a streams past them. Past the
// edge of the range a block repeats its first row of a or b; those lanes
// are computed and discarded.
func matMulBTRange(dst, a, b *Matrix, i0, i1 int) {
	n := b.Rows
	var acc [16]float32
	for j := 0; j < n; j += 4 {
		w := min(4, n-j)
		b0, b1, b2, b3 := rows4(b, j, w)
		for i := i0; i < i1; i += 4 {
			h := min(4, i1-i)
			a0, a1, a2, a3 := rows4(a, i, h)
			dotPanel4(&acc, a0, a1, a2, a3, b0, b1, b2, b3)
			for r := 0; r < h; r++ {
				dr := dst.Data[(i+r)*n+j : (i+r)*n+j+w]
				for l := range dr {
					dr[l] += acc[4*r+l]
				}
			}
		}
	}
}

// rows4 returns rows i..i+h-1 of m, padded to four with copies of row i.
func rows4(m *Matrix, i, h int) (r0, r1, r2, r3 []float32) {
	c := m.Cols
	r0 = m.Data[i*c : (i+1)*c]
	r1, r2, r3 = r0, r0, r0
	if h > 1 {
		r1 = m.Data[(i+1)*c : (i+2)*c]
	}
	if h > 2 {
		r2 = m.Data[(i+2)*c : (i+3)*c]
	}
	if h > 3 {
		r3 = m.Data[(i+3)*c : (i+4)*c]
	}
	return r0, r1, r2, r3
}
