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

// axpy computes dst += a·x.
func axpy(dst, x []float32, a float32) { axpySSE(dst[:len(x)], x, a) }

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
