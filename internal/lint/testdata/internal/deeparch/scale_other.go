//go:build !amd64

package deeparch

// scale is the portable loop every other architecture compiles.
func scale(dst, x []float32, a float32) {
	for i, v := range x {
		dst[i] += a * v
	}
}
