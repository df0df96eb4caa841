package mepipe

import (
	"context"

	"mepipe/internal/nn"
	"mepipe/internal/pipeline"
	"mepipe/internal/tensor"
)

// Kernel configuration. The live runtime's GEMMs run on a shared persistent
// worker pool with register-blocked loops; work is partitioned by
// destination-row ownership, so results are bitwise identical for any
// worker count — the sim-vs-runtime equivalence guarantees are unaffected
// by parallelism. See docs/PERFORMANCE.md.
type KernelConfig = tensor.KernelConfig

// ConfigureKernels replaces the process-wide GEMM worker pool (worker count,
// rows per work unit) and returns the resolved configuration. Zero fields select
// defaults (Workers: GOMAXPROCS). Call it at startup, not concurrently with
// running kernels.
func ConfigureKernels(cfg KernelConfig) KernelConfig { return tensor.Configure(cfg) }

// CurrentKernelConfig reports the shared pool's resolved configuration.
func CurrentKernelConfig() KernelConfig { return tensor.CurrentConfig() }

// WithKernelWorkers sets the GEMM worker count for calls that execute real
// tensor kernels (TrainPipelined). Pure simulation calls ignore it.
func WithKernelWorkers(n int) Option {
	return func(c *runConfig) { c.kernels = &tensor.KernelConfig{Workers: n} }
}

// The tiny numeric decoder the runtime trains (see internal/nn): the facade
// re-exports enough to build a model and drive real pipelined iterations.
type (
	DecoderConfig = nn.Config
	DecoderModel  = nn.Model
)

// NewDecoderModel builds a seeded decoder; identical seeds give identical
// weights on every stage, which is how the distributed workers stay in sync
// without a parameter broadcast.
var NewDecoderModel = nn.NewModel

// TrainPipelined executes one real (not simulated) training iteration of
// schedule s over the decoder m and batch, returning the mean loss.
// Gradients accumulate into m exactly as sequential training would produce
// them. WithTrace captures wall-clock op spans carrying per-op GEMM FLOPs
// and freshly-allocated bytes; WithKernelWorkers sizes the GEMM pool for the
// run.
func TrainPipelined(ctx context.Context, m *DecoderModel, s *Schedule, batch [][]int, opts ...Option) (float64, error) {
	var c runConfig
	for _, fn := range opts {
		fn(&c)
	}
	r, err := pipeline.New(m, s, batch)
	if err != nil {
		return 0, err
	}
	if c.sink != nil {
		r.WithTrace(c.sink)
	}
	if c.kernels != nil {
		r.WithKernels(*c.kernels)
	}
	return r.RunContext(ctx)
}
