package nn

import (
	"math"

	"mepipe/internal/tensor"
)

// Adam is the optimizer the paper trains with (§4.5 sizes the ZeRO shard
// around Adam's two moment buffers). Moments are kept in float32 per
// parameter tensor, mirroring the mixed-precision recipe.
type Adam struct {
	LR, Beta1, Beta2, Eps float32

	step    int
	moments map[*tensor.Matrix]*moments // by the parameter table's W
}

type moments struct{ m, v []float32 }

// NewAdam returns an optimizer with the usual defaults.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		moments: map[*tensor.Matrix]*moments{},
	}
}

// Step applies one Adam update to every parameter of the model using the
// gradients currently accumulated.
func (a *Adam) Step(model *Model) {
	a.step++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.step)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.step)))
	for _, p := range model.params {
		w, g := p.W.Data, p.G.Data
		st, ok := a.moments[p.W]
		if !ok {
			st = &moments{m: make([]float32, len(w)), v: make([]float32, len(w))}
			a.moments[p.W] = st
		}
		for i := range w {
			gi := g[i]
			st.m[i] = a.Beta1*st.m[i] + (1-a.Beta1)*gi
			st.v[i] = a.Beta2*st.v[i] + (1-a.Beta2)*gi*gi
			mh := st.m[i] / bc1
			vh := st.v[i] / bc2
			w[i] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
		}
	}
}
