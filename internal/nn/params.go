package nn

import (
	"fmt"

	"mepipe/internal/tensor"
)

// The parameter table: every weight of the decoder beside its gradient, in
// one fixed order — the embedding, each layer's seven linears and two
// RMSNorm scales, then the head's projection and norm. Every walk over the
// model's parameters reads it: zeroing, SGD, Adam, checkpoints here, and
// in internal/pipeline the data-parallel weight copy and all-reduce, the
// resilience snapshots and the per-stage optimizer step. The checkpoint
// format is this order, so it must not change.

// Owners of the parameters that belong to no layer.
const (
	OwnerEmbed = -1
	OwnerHead  = -2
)

// Param is one entry of the table. Norm scales are 1×n matrix headers
// over the layer's own slices, so every entry has one shape and the table
// costs no parameter memory.
type Param struct {
	Name  string // "embed", "l3.Wq", "l3.attnNorm", "head.W", "head.norm", ...
	Owner int    // the layer index, or OwnerEmbed / OwnerHead
	W, G  *tensor.Matrix
}

// buildParams fills the table once the model's tensors exist.
func (m *Model) buildParams() {
	vec := func(v []float32) *tensor.Matrix { return &tensor.Matrix{Rows: 1, Cols: len(v), Data: v} }
	m.params = []Param{{"embed", OwnerEmbed, m.Embed.Table, m.Embed.DTable}}
	for i, l := range m.Layers {
		for _, lin := range []struct {
			name string
			*Linear
		}{{"Wq", &l.Wq}, {"Wk", &l.Wk}, {"Wv", &l.Wv}, {"Wo", &l.Wo}, {"Wg", &l.Wg}, {"Wu", &l.Wu}, {"Wd", &l.Wd}} {
			m.params = append(m.params, Param{fmt.Sprintf("l%d.%s", i, lin.name), i, lin.W, lin.DW})
		}
		m.params = append(m.params,
			Param{fmt.Sprintf("l%d.attnNorm", i), i, vec(l.AttnNorm), vec(l.DAttnNorm)},
			Param{fmt.Sprintf("l%d.mlpNorm", i), i, vec(l.MLPNorm), vec(l.DMLPNorm)})
	}
	m.params = append(m.params,
		Param{"head.W", OwnerHead, m.Head.W.W, m.Head.W.DW},
		Param{"head.norm", OwnerHead, vec(m.Head.Norm), vec(m.Head.DNorm)})
}

// Params returns the model's parameter table. Callers may write through
// the entries' matrices but must not modify the slice, nor replace the
// model tensors it points at.
func (m *Model) Params() []Param { return m.params }

// ZeroGrads clears every gradient buffer.
func (m *Model) ZeroGrads() {
	for _, p := range m.params {
		p.G.Zero()
	}
}

// Grads returns every gradient by its table name, for comparisons.
func (m *Model) Grads() map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(m.params))
	for _, p := range m.params {
		out[p.Name] = p.G
	}
	return out
}

// SGD applies a plain gradient step w -= lr·g to each parameter.
func SGD(params []Param, lr float32) {
	for _, p := range params {
		w, g := p.W.Data, p.G.Data
		for i := range w {
			w[i] -= lr * g[i]
		}
	}
}

// SGDStep applies a plain gradient step to every parameter.
func (m *Model) SGDStep(lr float32) { SGD(m.params, lr) }
