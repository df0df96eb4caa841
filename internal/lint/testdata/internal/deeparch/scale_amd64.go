package deeparch

// scale is implemented in assembly on amd64: a declaration without a body,
// so a leaf of the call graph.
func scale(dst, x []float32, a float32)
