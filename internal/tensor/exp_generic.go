//go:build !amd64

package tensor

// Without an assembly leaf the exp users run the Go loops of ops.go.

func sigmoids(dst, x []float32) { sigmoidsGo(dst, x) }

func expDiffs(dst []float64, x []float32, c float32) { expDiffsGo(dst, x, c) }
