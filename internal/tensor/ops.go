package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// RandInit fills m with small uniform values in [−scale, scale) from rng —
// deterministic given the seed, which the equivalence tests rely on.
func (m *Matrix) RandInit(rng *rand.Rand, scale float32) {
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// expChunk is the length of the stack buffers through which SiLU,
// SiLUBackward, SoftmaxRowsCausal and CrossEntropy run their exp leaves.
const expChunk = 512

// SiLU applies x·sigmoid(x) element-wise into dst.
func SiLU(dst, x *Matrix) {
	var s [expChunk]float32
	for i0 := 0; i0 < len(x.Data); i0 += expChunk {
		xs := x.Data[i0:min(i0+expChunk, len(x.Data))]
		sigmoids(s[:len(xs)], xs)
		d := dst.Data[i0:]
		for i, v := range xs {
			d[i] = v * s[i]
		}
	}
}

// SiLUBackward sets act = silu(x) and computes dx += dy ⊙ silu'(x), one
// sigmoid per element serving both.
func SiLUBackward(act, dx, dy, x *Matrix) {
	var s [expChunk]float32
	for i0 := 0; i0 < len(x.Data); i0 += expChunk {
		xs := x.Data[i0:min(i0+expChunk, len(x.Data))]
		sigmoids(s[:len(xs)], xs)
		a, dxs, dys := act.Data[i0:], dx.Data[i0:], dy.Data[i0:]
		for i, v := range xs {
			sg := s[i]
			a[i] = v * sg
			dxs[i] += dys[i] * (sg + v*sg*(1-sg))
		}
	}
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// sigmoidsGo is the loop the sigmoid leaf replaces, and its oracle.
func sigmoidsGo(dst, x []float32) {
	for i, v := range x {
		dst[i] = sigmoid(v)
	}
}

// expDiffsGo is the loop the exp-of-difference leaf replaces, and its
// oracle: the difference in float32, its exp in float64.
func expDiffsGo(dst []float64, x []float32, c float32) {
	for j, v := range x {
		dst[j] = math.Exp(float64(v - c))
	}
}

// newVec allocates a fresh float32 slice for callers that did not supply a
// reusable buffer.
//
//mepipe:coldalloc fallback for callers without scratch storage; hot paths pass a reused buffer instead
func newVec(n int) []float32 { return make([]float32, n) }

// Mul computes dst = a ⊙ b element-wise; dst may alias a or b.
func Mul(dst, a, b *Matrix) {
	checkElementwise("mul", dst, a, b)
	mul(dst.Data, a.Data, b.Data)
}

// MulAdd computes dst += a ⊙ b element-wise.
func MulAdd(dst, a, b *Matrix) {
	checkElementwise("mulAdd", dst, a, b)
	mulAdd(dst.Data, a.Data, b.Data)
}

// checkElementwise panics unless a and b have dst's shape.
func checkElementwise(op string, dst, a, b *Matrix) {
	if !sameShape(dst, a) || !sameShape(dst, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%dx%d)⊙(%dx%d)->(%dx%d)",
			op, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// mulGo, mulAddGo, addGo and scaleGo are the loops the elementwise leaves
// replace, and their oracles: each runs over len(dst), reading the same
// index of its operands.
func mulGo(dst, a, b []float32) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func mulAddGo(dst, a, b []float32) {
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

func addGo(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func scaleGo(dst []float32, a float32) {
	for i := range dst {
		dst[i] *= a
	}
}

// RMSNorm normalises each row of x by its root-mean-square and scales by g
// (a 1×Cols vector), writing into dst. It returns the per-row inverse RMS
// needed by the backward pass, written into inv when the caller provides a
// buffer of length x.Rows (so hot paths can reuse scratch storage) and into
// a fresh slice when inv is nil.
func RMSNorm(dst, x *Matrix, g, inv []float32) []float32 {
	if inv == nil {
		inv = newVec(x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		r := float32(1 / math.Sqrt(ss/float64(len(row))+1e-6))
		inv[i] = r
		drow := dst.Row(i)
		for j, v := range row {
			drow[j] = v * r * g[j]
		}
	}
	return inv
}

// RMSNormBackward accumulates dx and dg for y = g ⊙ x·invRMS.
func RMSNormBackward(dx *Matrix, dg []float32, dy, x *Matrix, g []float32, inv []float32) {
	n := float32(x.Cols)
	for i := 0; i < x.Rows; i++ {
		xr, dyr, dxr := x.Row(i), dy.Row(i), dx.Row(i)
		r := inv[i]
		// dg_j += dy_j * x_j * r
		var dot float64 // Σ dy_j g_j x_j
		for j := range xr {
			dg[j] += dyr[j] * xr[j] * r
			dot += float64(dyr[j]) * float64(g[j]) * float64(xr[j])
		}
		c := float32(dot) * r * r * r / n
		for j := range xr {
			dxr[j] += dyr[j]*g[j]*r - c*xr[j]
		}
	}
}

// SoftmaxRowsCausal applies a causal-masked softmax to each row of scores:
// row q may attend to columns 0..offset+q (absolute positions), where offset
// is the absolute position of the slice's first query. Masked entries are
// zeroed. The computation is done in place.
func SoftmaxRowsCausal(scores *Matrix, offset int) {
	var e [expChunk]float64
	for q := 0; q < scores.Rows; q++ {
		row := scores.Row(q)
		limit := offset + q + 1
		if limit > len(row) {
			limit = len(row)
		}
		maxv := float32(math.Inf(-1))
		for j := 0; j < limit; j++ {
			if row[j] > maxv {
				maxv = row[j]
			}
		}
		var sum float64
		for j0 := 0; j0 < limit; j0 += expChunk {
			xs := row[j0:min(j0+expChunk, limit)]
			expDiffs(e[:len(xs)], xs, maxv)
			for j := range xs {
				xs[j] = float32(e[j])
				sum += float64(xs[j])
			}
		}
		invSum := float32(1 / sum)
		for j := 0; j < limit; j++ {
			row[j] *= invSum
		}
		for j := limit; j < len(row); j++ {
			row[j] = 0
		}
	}
}

// SoftmaxBackwardCausal computes dScores (in place over dProbs) given the
// probabilities from SoftmaxRowsCausal: ds = p ⊙ (dp − Σ dp·p), respecting
// the same causal mask.
func SoftmaxBackwardCausal(dProbs, probs *Matrix, offset int) {
	for q := 0; q < dProbs.Rows; q++ {
		dp, p := dProbs.Row(q), probs.Row(q)
		limit := offset + q + 1
		if limit > len(dp) {
			limit = len(dp)
		}
		var dot float64
		for j := 0; j < limit; j++ {
			dot += float64(dp[j]) * float64(p[j])
		}
		for j := 0; j < limit; j++ {
			dp[j] = p[j] * (dp[j] - float32(dot))
		}
		for j := limit; j < len(dp); j++ {
			dp[j] = 0
		}
	}
}

// CrossEntropy computes the mean cross-entropy loss of logits [T×V] against
// targets, and writes dLogits (softmax − onehot)/T into dst. Rows with
// target < 0 are ignored.
func CrossEntropy(dst, logits *Matrix, targets []int) float64 {
	var loss float64
	count := 0
	for _, t := range targets {
		if t >= 0 {
			count++
		}
	}
	if count == 0 {
		dst.Zero()
		return 0
	}
	invCount := float32(1.0 / float64(count))
	var buf [expChunk]float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		drow := dst.Row(i)
		if targets[i] < 0 {
			for j := range drow {
				drow[j] = 0
			}
			continue
		}
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		// A row that fits the buffer takes each exp once; a longer one
		// takes them again, chunk by chunk, for p.
		n := len(row)
		var sum float64
		for j0 := 0; j0 < n; j0 += expChunk {
			e := buf[:min(expChunk, n-j0)]
			expDiffs(e, row[j0:j0+len(e)], maxv)
			for _, v := range e {
				sum += v
			}
		}
		logSum := math.Log(sum)
		loss += logSum - float64(row[targets[i]]-maxv)
		for j0 := 0; j0 < n; j0 += expChunk {
			e := buf[:min(expChunk, n-j0)]
			if n > expChunk {
				expDiffs(e, row[j0:j0+len(e)], maxv)
			}
			for j, v := range e {
				p := float32(v / sum)
				drow[j0+j] = p * invCount
			}
		}
		drow[targets[i]] -= invCount
	}
	return loss / float64(count)
}
