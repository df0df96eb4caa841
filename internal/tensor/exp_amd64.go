package tensor

// hasFMA reports whether the CPU has the FMA3 instructions.
func hasFMA() bool

// useExpAVX2 routes sigmoids and expDiffs to the AVX2+FMA leaves of
// exp_amd64.s. It needs FMA as well as AVX2 because the leaves repeat the
// FMA path of math.Exp, which math takes only when the CPU has both; every
// other CPU runs the Go loops of ops.go, which are also the leaves'
// differential oracles.
var useExpAVX2 = hasAVX2() && hasFMA()

// sigmoidAVX2 sets dst[i] = sigmoid(x[i]) four elements at a time and
// returns how many it set: len(x) rounded down to a multiple of four, or
// fewer when it stops at the first group of four with an input beyond
// ±700 or NaN. dst must be at least as long as x.
//
//go:noescape
func sigmoidAVX2(dst, x []float32) int

// expDiffAVX2 sets dst[j] = math.Exp(float64(x[j]-c)) four elements at a
// time and returns how many it set, stopping as sigmoidAVX2 does when
// some x[j]-c of a group is beyond ±700 or NaN. dst must be at least as
// long as x.
//
//go:noescape
func expDiffAVX2(dst []float64, x []float32, c float32) int

// sigmoids sets dst[i] = sigmoid(x[i]) for i < len(x).
func sigmoids(dst, x []float32) {
	for useExpAVX2 && len(x) >= 4 {
		n := sigmoidAVX2(dst[:len(x)], x)
		if n+4 <= len(x) {
			// A group the leaf leaves to math.Exp.
			sigmoidsGo(dst[n:n+4], x[n:n+4])
			n += 4
		}
		dst, x = dst[n:], x[n:]
	}
	sigmoidsGo(dst, x)
}

// expDiffs sets dst[j] = math.Exp(float64(x[j]-c)) for j < len(x).
func expDiffs(dst []float64, x []float32, c float32) {
	for useExpAVX2 && len(x) >= 4 {
		n := expDiffAVX2(dst[:len(x)], x, c)
		if n+4 <= len(x) {
			expDiffsGo(dst[n:n+4], x[n:n+4], c)
			n += 4
		}
		dst, x = dst[n:], x[n:]
	}
	expDiffsGo(dst, x, c)
}
