// Package tensor provides the dense float32 kernels the executable runtime
// needs: cache-tiled matrix multiplication in the three transpose variants
// used by forward passes, activation-gradient passes, and weight-gradient
// passes (optionally parallelised over a persistent worker pool — see
// pool.go), plus element-wise helpers and a scratch arena for
// allocation-free training steps (scratch.go). Parallel execution partitions
// work by row-tile ownership, so results are bitwise identical to serial
// execution — the property the sim-vs-runtime equivalence tests rely on.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewWithRowCap returns a zeroed rows×cols matrix whose backing array can
// hold rowCap rows, so AppendRows can grow it in place without reallocating.
func NewWithRowCap(rows, cols, rowCap int) *Matrix {
	if rows < 0 || cols < 0 || rowCap < rows {
		panic(fmt.Sprintf("tensor: bad capacity shape %dx%d cap %d rows", rows, cols, rowCap))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols, rowCap*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	clear(m.Data)
}

// CopyFrom copies src into m (shapes must match).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch (%dx%d)<-(%dx%d)", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Add accumulates src into m element-wise.
func (m *Matrix) Add(src *Matrix) {
	if !sameShape(m, src) {
		panic(fmt.Sprintf("tensor: add shape mismatch (%dx%d)+=(%dx%d)", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	add(m.Data, src.Data)
}

// sameShape reports whether a and b have the same rows and columns.
func sameShape(a, b *Matrix) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

// AppendRows appends src's rows to m in place, growing the backing array
// geometrically when capacity runs out. Matrices built with NewWithRowCap
// (or checked out of a Scratch, whose buffers are power-of-two sized) append
// without allocating once warm.
func (m *Matrix) AppendRows(src *Matrix) {
	if m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: append shape mismatch (%dx%d)<<(%dx%d)", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	used := m.Rows * m.Cols
	need := used + src.Rows*src.Cols
	if cap(m.Data) < need {
		growData(m, used, need)
	} else {
		m.Data = m.Data[:need]
	}
	copy(m.Data[used:], src.Data[:src.Rows*src.Cols])
	m.Rows += src.Rows
}

// growData reallocates m's backing array to at least need elements,
// preserving the first used.
//
//mepipe:coldalloc geometric growth; warm KV caches and scratch matrices are pre-sized, so steady state never enters
func growData(m *Matrix, used, need int) {
	grown := make([]float32, need, max(need, 2*cap(m.Data)))
	copy(grown, m.Data[:used])
	m.Data = grown
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float32) { scale(m.Data, a) }

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	maxd := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}
