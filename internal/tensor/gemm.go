package tensor

import "fmt"

// The three GEMM variants below may run on the shared worker pool
// (pool.go). Parallelism always partitions the destination rows into tiles
// owned by exactly one worker, and within every destination element the
// reduction order over k is strictly ascending with a single accumulator —
// so the result is bitwise identical for any worker count, any tile size,
// and identical to the naive reference kernels kept at the bottom of this
// file.

// gemmKind selects which transpose variant a row range executes.
type gemmKind uint8

const (
	kindMM gemmKind = iota // dst += a·b
	kindBT                 // dst += a·bᵀ
	kindAT                 // dst += aᵀ·b
)

// MatMul computes dst += a·b with a [m×k], b [k×n], dst [m×n]. dst is
// accumulated so gradient sums compose naturally; call dst.Zero() first for
// a plain product.
//
//mepipe:hotpath
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kindMM, dst, a, b, dst.Rows, 2*int64(a.Rows)*int64(a.Cols)*int64(b.Cols))
}

// MatMulBT computes dst += a·bᵀ with a [m×k], b [n×k], dst [m×n] — the shape
// of activation-gradient GEMMs (dX = dY·Wᵀ) and attention scores (Q·Kᵀ).
//
//mepipe:hotpath
func MatMulBT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulBT shape mismatch (%dx%d)·(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kindBT, dst, a, b, dst.Rows, 2*int64(a.Rows)*int64(a.Cols)*int64(b.Rows))
}

// MatMulAT computes dst += aᵀ·b with a [k×m], b [k×n], dst [m×n] — the shape
// of weight-gradient GEMMs (dW = Xᵀ·dY) and attention value gathers.
//
//mepipe:hotpath
func MatMulAT(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulAT shape mismatch (%dx%d)T·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kindAT, dst, a, b, dst.Rows, 2*int64(a.Rows)*int64(a.Cols)*int64(b.Cols))
}

// gemmRange executes one variant over destination rows [i0, i1) — the unit
// of work a pool worker owns. Serial execution is gemmRange over [0, Rows).
func gemmRange(kind gemmKind, dst, a, b *Matrix, i0, i1 int) {
	switch kind {
	case kindMM:
		matMulRange(dst, a, b, i0, i1)
	case kindBT:
		matMulBTRange(dst, a, b, i0, i1)
	case kindAT:
		matMulATRange(dst, a, b, i0, i1)
	}
}

// On amd64 with AVX2, axpy is an AVX2 leaf (gemm_amd64.s), and
// matMulRange, matMulATRange and matMulBTRange run register-blocked AVX2
// panels that leave only the edges to matMulCols, matMulATCols and
// matMulBTCols. Without AVX2, and on every other architecture
// (gemm_generic.go), all of them run the Go loops of this file, which stay
// compiled on amd64 as the differential oracles of the assembly.

// matMulCols is MatMul restricted to dst rows [i0, i1) and columns
// [j0, n): one axpy per row and nonzero a element, in ascending k.
func matMulCols(dst, a, b *Matrix, i0, i1, j0 int) {
	k, n := a.Cols, b.Cols
	if j0 == n {
		return
	}
	for i := i0; i < i1; i++ {
		dr := dst.Data[i*n+j0 : (i+1)*n]
		for kk, av := range a.Data[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			axpy(dr, b.Data[kk*n+j0:(kk+1)*n], av)
		}
	}
}

// axpyGo computes dst += a·x, 4×-unrolled. Each dst[j] is written by
// exactly one statement, so the unroll does not change accumulation order.
func axpyGo(dst, x []float32, a float32) {
	dst = dst[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		dst[j] += a * x[j]
		dst[j+1] += a * x[j+1]
		dst[j+2] += a * x[j+2]
		dst[j+3] += a * x[j+3]
	}
	for ; j < len(x); j++ {
		dst[j] += a * x[j]
	}
}

// matMulBTCols is MatMulBT restricted to dst rows [i0, i1) and columns
// [j0, n). It processes columns in panels of four rows of b, streaming
// each a-row once per panel. Each output element is one dot product with
// ascending k, identical to the reference kernel.
func matMulBTCols(dst, a, b *Matrix, i0, i1, j0 int) {
	k, n := a.Cols, b.Rows
	for i := i0; i < i1; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for kk, av := range ar {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			dr[j] += s0
			dr[j+1] += s1
			dr[j+2] += s2
			dr[j+3] += s3
		}
		for ; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var s float32
			for kk, av := range ar {
				s += av * br[kk]
			}
			dr[j] += s
		}
	}
}

// matMulATCols is MatMulAT restricted to dst rows [i0, i1) and columns
// [j0, n). It keeps the reference loop order (outer k, so a and b stream
// row-wise): one axpy per k step and nonzero a element.
func matMulATCols(dst, a, b *Matrix, i0, i1, j0 int) {
	k, m, n := a.Rows, a.Cols, b.Cols
	if j0 == n {
		return
	}
	for kk := 0; kk < k; kk++ {
		ar := a.Data[kk*m : (kk+1)*m]
		br := b.Data[kk*n+j0 : (kk+1)*n]
		for i := i0; i < i1; i++ {
			av := ar[i]
			if av == 0 {
				continue
			}
			axpy(dst.Data[i*n+j0:(i+1)*n], br, av)
		}
	}
}

// Naive reference kernels — the pre-tiling implementations, retained as the
// oracle for the bitwise-equality property tests and as the baseline the
// kernel benchmarks measure speedups against. Not used by the runtime.

// NaiveMatMul is the straightforward blocked dst += a·b.
func NaiveMatMul(dst, a, b *Matrix) {
	const blk = 32
	m, k, n := a.Rows, a.Cols, b.Cols
	for i0 := 0; i0 < m; i0 += blk {
		i1 := min(i0+blk, m)
		for k0 := 0; k0 < k; k0 += blk {
			k1 := min(k0+blk, k)
			for i := i0; i < i1; i++ {
				ar := a.Data[i*k : (i+1)*k]
				dr := dst.Data[i*n : (i+1)*n]
				for kk := k0; kk < k1; kk++ {
					av := ar[kk]
					if av == 0 {
						continue
					}
					br := b.Data[kk*n : (kk+1)*n]
					for j, bv := range br {
						dr[j] += av * bv
					}
				}
			}
		}
	}
}

// NaiveMatMulBT is the straightforward per-element dot product dst += a·bᵀ.
func NaiveMatMulBT(dst, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for i := 0; i < m; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var s float32
			for kk, av := range ar {
				s += av * br[kk]
			}
			dr[j] += s
		}
	}
}

// NaiveMatMulAT is the straightforward outer-k dst += aᵀ·b.
func NaiveMatMulAT(dst, a, b *Matrix) {
	k, m, n := a.Rows, a.Cols, b.Cols
	for kk := 0; kk < k; kk++ {
		ar := a.Data[kk*m : (kk+1)*m]
		br := b.Data[kk*n : (kk+1)*n]
		for i, av := range ar {
			if av == 0 {
				continue
			}
			dr := dst.Data[i*n : (i+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}
