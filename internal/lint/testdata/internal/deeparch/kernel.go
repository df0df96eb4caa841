// Package deeparch seeds the build-constraint filter: scale is declared
// once per architecture — body-less (assembly) on amd64, a Go loop
// elsewhere — and the analyzers must load only the declaration the host
// build compiles.
package deeparch

// Scale is a hot root whose only callee is the arch-specific leaf.
//
//mepipe:hotpath
func Scale(dst, x []float32, a float32) {
	scale(dst, x, a)
}
