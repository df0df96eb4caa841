//go:build !amd64

package tensor

// Without an assembly leaf the kernels run the portable Go loops of gemm.go,
// ops.go and tensor.go.

func axpy(dst, x []float32, a float32) { axpyGo(dst, x, a) }

func matMulRange(dst, a, b *Matrix, i0, i1 int) { matMulCols(dst, a, b, i0, i1, 0) }

func matMulATRange(dst, a, b *Matrix, i0, i1 int) { matMulATCols(dst, a, b, i0, i1, 0) }

func matMulBTRange(dst, a, b *Matrix, i0, i1 int) { matMulBTCols(dst, a, b, i0, i1, 0) }

func mul(dst, a, b []float32) { mulGo(dst, a, b) }

func mulAdd(dst, a, b []float32) { mulAddGo(dst, a, b) }

func add(dst, src []float32) { addGo(dst, src) }

func scale(dst []float32, a float32) { scaleGo(dst, a) }
