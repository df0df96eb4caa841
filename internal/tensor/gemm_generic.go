//go:build !amd64

package tensor

// Without an assembly leaf the kernels run the portable Go loops of gemm.go.

func axpy(dst, x []float32, a float32) { axpyGo(dst, x, a) }

func matMulBTRange(dst, a, b *Matrix, i0, i1 int) { matMulBTRangeGo(dst, a, b, i0, i1) }
