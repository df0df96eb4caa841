package v1

import (
	"fmt"
	"sort"
	"strings"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/hw"
	"mepipe/internal/obs"
	"mepipe/internal/strategy"
)

// SystemByName parses a wire system name (case-insensitive).
func SystemByName(name string) (strategy.System, error) {
	switch strings.ToLower(name) {
	case "mepipe":
		return strategy.MEPipe, nil
	case "dapple":
		return strategy.DAPPLE, nil
	case "vpp":
		return strategy.VPP, nil
	case "zb":
		return strategy.ZB, nil
	case "zbv":
		return strategy.ZBV, nil
	case "terapipe":
		return strategy.TeraPipe, nil
	case "gpipe":
		return strategy.GPipe, nil
	}
	return 0, fmt.Errorf("%w: unknown system %q (want mepipe, dapple, vpp, zb, zbv, terapipe or gpipe)", ErrBadRequest, name)
}

// SystemName renders a system in canonical wire form (lower-case).
func SystemName(sys strategy.System) string { return strings.ToLower(sys.String()) }

// recomputeByName parses a wire recompute mode.
func recomputeByName(name string) (config.RecomputeMode, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return config.RecomputeNone, nil
	case "selective":
		return config.RecomputeSelective, nil
	case "full":
		return config.RecomputeFull, nil
	}
	return 0, fmt.Errorf("%w: unknown recompute mode %q (want none, selective or full)", ErrBadRequest, name)
}

// recomputeName renders a recompute mode in canonical wire form; the
// default mode is the empty string so it stays omitted from canonical
// documents.
func recomputeName(m config.RecomputeMode) string {
	switch m {
	case config.RecomputeSelective:
		return "selective"
	case config.RecomputeFull:
		return "full"
	}
	return ""
}

// Model converts the spec to a validated config.Model.
func (s ModelSpec) Model() (config.Model, error) {
	if s.Preset != "" {
		if s.HiddenSize != 0 || s.NumLayers != 0 || s.NumHeads != 0 || s.NumKVHeads != 0 ||
			s.FFNHidden != 0 || s.VocabSize != 0 || s.SeqLen != 0 || s.Name != "" {
			return config.Model{}, fmt.Errorf("%w: model preset %q cannot be combined with explicit dimensions", ErrBadRequest, s.Preset)
		}
		m, err := config.ModelByName(s.Preset)
		if err != nil {
			return config.Model{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return m, nil
	}
	m := config.Model{
		Name: s.Name, HiddenSize: s.HiddenSize, NumLayers: s.NumLayers,
		NumHeads: s.NumHeads, NumKVHeads: s.NumKVHeads, FFNHidden: s.FFNHidden,
		VocabSize: s.VocabSize, SeqLen: s.SeqLen,
	}
	if m.NumKVHeads == 0 {
		m.NumKVHeads = m.NumHeads
	}
	if err := m.Validate(); err != nil {
		return config.Model{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return m, nil
}

// ModelFrom builds the canonical explicit spec for a model.
func ModelFrom(m config.Model) ModelSpec {
	return ModelSpec{
		Name: m.Name, HiddenSize: m.HiddenSize, NumLayers: m.NumLayers,
		NumHeads: m.NumHeads, NumKVHeads: m.NumKVHeads, FFNHidden: m.FFNHidden,
		VocabSize: m.VocabSize, SeqLen: m.SeqLen,
	}
}

// Cluster converts the spec to a modelled cluster. A preset picks its
// testbed; an explicit GPU picks the testbed with that GPU, so the
// interconnect model stays calibrated. Servers and GPUsPerServer then
// override the shape, which must be positive either way.
func (s ClusterSpec) Cluster() (cluster.Cluster, error) {
	if s.Preset != "" && s.GPU != "" {
		return cluster.Cluster{}, fmt.Errorf("%w: cluster preset %q cannot be combined with an explicit gpu", ErrBadRequest, s.Preset)
	}
	var cl cluster.Cluster
	switch strings.ToLower(s.Preset) {
	case "rtx4090", "4090":
		cl = cluster.RTX4090Cluster(8)
	case "a100":
		cl = cluster.A100Cluster(4)
	case "":
		if s.GPU == "" {
			return cluster.Cluster{}, fmt.Errorf("%w: cluster needs a preset or a gpu name", ErrBadRequest)
		}
		gpu, err := hw.GPUByName(s.GPU)
		if err != nil {
			return cluster.Cluster{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		cl = cluster.RTX4090Cluster(8)
		if gpu.Name == hw.A100().Name {
			cl = cluster.A100Cluster(4)
		}
	default:
		return cluster.Cluster{}, fmt.Errorf("%w: unknown cluster preset %q (want rtx4090 or a100)", ErrBadRequest, s.Preset)
	}
	if s.Servers != 0 {
		cl.Servers = s.Servers
	}
	if s.GPUsPerServer != 0 {
		cl.GPUsPerServer = s.GPUsPerServer
	}
	if cl.Servers <= 0 || cl.GPUsPerServer <= 0 {
		return cluster.Cluster{}, fmt.Errorf("%w: cluster shape %dx%d must be positive", ErrBadRequest, cl.Servers, cl.GPUsPerServer)
	}
	return cl, nil
}

// ClusterFrom builds the canonical explicit spec for a cluster.
func ClusterFrom(cl cluster.Cluster) ClusterSpec {
	name := "rtx4090"
	if cl.GPU.Name == hw.A100().Name {
		name = "a100"
	}
	return ClusterSpec{GPU: name, GPUsPerServer: cl.GPUsPerServer, Servers: cl.Servers}
}

// Parallel converts the spec to a config.Parallel. Zero DP/CP/SPP/VP are
// left for Normalize to default; callers converting un-normalized specs
// get the literal values.
func (s ParallelSpec) Parallel() (config.Parallel, error) {
	rec, err := recomputeByName(s.Recompute)
	if err != nil {
		return config.Parallel{}, err
	}
	return config.Parallel{
		PP: s.PP, DP: s.DP, CP: s.CP, SPP: s.SPP, VP: s.VP, TP: s.TP,
		Recompute: rec,
	}, nil
}

// ParallelFrom builds the wire spec for a strategy.
func ParallelFrom(p config.Parallel) ParallelSpec {
	return ParallelSpec{
		PP: p.PP, DP: p.DP, CP: p.CP, SPP: p.SPP, VP: p.VP, TP: p.TP,
		Recompute: recomputeName(p.Recompute),
	}
}

// Training converts the spec to a config.Training.
func (s TrainingSpec) Training() config.Training {
	mb := s.MicroBatch
	if mb == 0 {
		mb = 1
	}
	return config.Training{GlobalBatch: s.GlobalBatch, MicroBatch: mb}
}

// TrainingFrom builds the wire spec for a training config.
func TrainingFrom(t config.Training) TrainingSpec {
	return TrainingSpec{GlobalBatch: t.GlobalBatch, MicroBatch: t.MicroBatch}
}

// canonical validates the search space and returns its canonical wire
// form and the domain space it denotes, which shares its lists. Empty lists
// and a zero min_dp take the paper's default space's values, a nil spec is
// that space, and lists are sorted and deduplicated (the ranked search
// result is independent of enumeration order). Every list entry must be
// positive and min_dp non-negative.
func (s *SpaceSpec) canonical() (*SpaceSpec, strategy.SearchSpace, error) {
	sp := strategy.DefaultSpace()
	if s != nil {
		sp.PP, sp.CP = sortedUnique(s.PP, sp.PP), sortedUnique(s.CP, sp.CP)
		sp.SPP, sp.VP = sortedUnique(s.SPP, sp.SPP), sortedUnique(s.VP, sp.VP)
		if s.MinDP != 0 {
			sp.MinDP = s.MinDP
		}
		sp.Prune = s.Prune
	}
	for i, l := range [][]int{sp.PP, sp.CP, sp.SPP, sp.VP} {
		if l[0] < 1 {
			return nil, strategy.SearchSpace{}, fmt.Errorf("%w: space.%s entry %d must be positive", ErrBadRequest, [...]string{"pp", "cp", "spp", "vp"}[i], l[0])
		}
	}
	if sp.MinDP < 0 {
		return nil, strategy.SearchSpace{}, fmt.Errorf("%w: space.min_dp %d must be non-negative", ErrBadRequest, sp.MinDP)
	}
	return &SpaceSpec{PP: sp.PP, CP: sp.CP, SPP: sp.SPP, VP: sp.VP, MinDP: sp.MinDP, Prune: sp.Prune}, sp, nil
}

// sortedUnique returns a sorted copy of xs with duplicates removed, or def
// when xs is empty.
func sortedUnique(xs, def []int) []int {
	if len(xs) == 0 {
		return def
	}
	out := append([]int(nil), xs...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// CandidateFrom builds the wire form of one evaluated configuration,
// deriving throughput figures from the job context.
func CandidateFrom(ev *strategy.Eval, m config.Model, cl cluster.Cluster, tr config.Training) Candidate {
	c := Candidate{
		Parallel:     ParallelFrom(ev.Par),
		MicroBatches: ev.N,
		OOM:          ev.OOM,
		OOMWhy:       ev.OOMWhy,
		BudgetBytes:  ev.Budget,
		F:            ev.F,
	}
	if !ev.OOM {
		c.IterTimeS = ev.IterTime
		c.Bubble = ev.Bubble
		c.PeakActBytes = ev.PeakAct
		c.TFLOPSPerGPU = ev.TFLOPSPerGPU(m, tr, cl.GPUs())
		c.MFU = ev.MFU(m, tr, cl)
	}
	return c
}

// BreakdownFrom builds the wire breakdown of one traced iteration: each
// stage's forward, backward, weight-gradient and tail seconds, and the
// idle rest of the makespan, averaged over the stages and taken as
// fractions of the makespan.
func BreakdownFrom(s *obs.Snapshot) Breakdown {
	n, t := float64(len(s.Stages)), s.Makespan
	if n == 0 || t == 0 {
		return Breakdown{}
	}
	var f, b, w, tail, idle float64
	for _, m := range s.Stages {
		f += m.Forward
		b += m.Backward
		w += m.Weight
		tail += m.Tail
		idle += max(t-m.Forward-m.Backward-m.Weight-m.Tail, 0)
	}
	return Breakdown{Forward: f / n / t, Backward: b / n / t, Weight: w / n / t, Tail: tail / n / t, Idle: idle / n / t}
}
