package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// KernelConfig sizes the GEMM kernels: how many workers cooperate on one
// multiplication and how many destination rows each work unit holds. The
// zero value of any field selects the default. Neither affects results
// (accumulation order per destination element is fixed); they only affect
// speed.
type KernelConfig struct {
	// Workers is the total number of participants in one GEMM, including
	// the calling goroutine. <= 0 means GOMAXPROCS.
	Workers int
	// TileM is the number of destination rows per work unit handed to a
	// worker. <= 0 means 32.
	TileM int
}

const (
	defaultTileM = 32

	// parallelFLOPCutoff is the GEMM cost below which fan-out costs more
	// than it saves and the calling goroutine runs the kernel alone.
	parallelFLOPCutoff = 1 << 18
)

// NormalizeKernelConfig resolves zero fields to their concrete defaults —
// the form Configure stores and CurrentConfig reports.
func NormalizeKernelConfig(c KernelConfig) KernelConfig { return c.withDefaults() }

// withDefaults resolves zero fields to concrete values.
func (c KernelConfig) withDefaults() KernelConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TileM <= 0 {
		c.TileM = defaultTileM
	}
	return c
}

// Pool is a persistent set of kernel workers shared by every GEMM call
// routed through it. Workers claim destination row tiles from an atomic
// cursor; each tile is owned by exactly one worker, so no two goroutines
// ever write the same output element and results are bitwise identical to
// serial execution.
type Pool struct {
	cfg  KernelConfig
	jobs chan *gemmJob
}

// gemmJob is one multiplication being processed cooperatively. Jobs are
// recycled through a sync.Pool so steady-state dispatch allocates nothing.
type gemmJob struct {
	kind       gemmKind
	dst, a, b  *Matrix
	rows, tile int
	cursor     atomic.Int64
	wg         sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(gemmJob) }}

// NewPool starts a worker pool. cfg.Workers counts the caller as a
// participant, so Workers-1 goroutines are spawned; a Workers <= 1 pool
// spawns none and runs every kernel on the calling goroutine. Close the
// pool to stop the workers.
func NewPool(cfg KernelConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, jobs: make(chan *gemmJob, 8*cfg.Workers)}
	for i := 0; i < cfg.Workers-1; i++ {
		spawnKernelWorker(p)
	}
	return p
}

// spawnKernelWorker is the package's only goroutine spawn site (allowlisted
// for the gospawn lint rule; tensor cannot route through pipeline.spawn
// without an import cycle).
func spawnKernelWorker(p *Pool) {
	go p.worker()
}

// Close stops the pool's workers. It must not race with in-flight kernels
// on the same pool.
func (p *Pool) Close() { close(p.jobs) }

// Config reports the pool's resolved configuration.
func (p *Pool) Config() KernelConfig { return p.cfg }

func (p *Pool) worker() {
	for j := range p.jobs {
		j.work()
		j.wg.Done()
	}
}

// work claims row tiles until the cursor is exhausted.
func (j *gemmJob) work() {
	for {
		t := int(j.cursor.Add(1)) - 1
		i0 := t * j.tile
		if i0 >= j.rows {
			return
		}
		gemmRange(j.kind, j.dst, j.a, j.b, i0, min(i0+j.tile, j.rows))
	}
}

// run executes one GEMM on the pool, with the calling goroutine working
// alongside the pool's goroutines. All handed-out job pointers are consumed
// before wg.Wait returns, so recycling the job afterwards is safe.
func (p *Pool) run(kind gemmKind, dst, a, b *Matrix, rows int) {
	j := jobPool.Get().(*gemmJob)
	j.kind, j.dst, j.a, j.b = kind, dst, a, b
	j.rows, j.tile = rows, p.cfg.TileM
	j.cursor.Store(0)
	helpers := p.cfg.Workers - 1
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.jobs <- j
	}
	j.work()
	j.wg.Wait()
	j.dst, j.a, j.b = nil, nil, nil
	jobPool.Put(j)
}

// MatMul runs dst += a·b on this pool (see the package-level MatMul).
func (p *Pool) MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	p.gemm(kindMM, dst, a, b, dst.Rows, 2*int64(a.Rows)*int64(a.Cols)*int64(b.Cols))
}

// MatMulBT runs dst += a·bᵀ on this pool.
func (p *Pool) MatMulBT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulBT shape mismatch (%dx%d)·(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	p.gemm(kindBT, dst, a, b, dst.Rows, 2*int64(a.Rows)*int64(a.Cols)*int64(b.Rows))
}

// MatMulAT runs dst += aᵀ·b on this pool.
func (p *Pool) MatMulAT(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulAT shape mismatch (%dx%d)T·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	p.gemm(kindAT, dst, a, b, dst.Rows, 2*int64(a.Rows)*int64(a.Cols)*int64(b.Cols))
}

// gemm picks serial or pooled execution. Small multiplications (or ones
// with fewer row tiles than workers could share) stay on the caller.
func (p *Pool) gemm(kind gemmKind, dst, a, b *Matrix, rows int, flops int64) {
	if p.cfg.Workers < 2 || flops < parallelFLOPCutoff || rows < 2*p.cfg.TileM {
		gemmRange(kind, dst, a, b, 0, rows)
		return
	}
	p.run(kind, dst, a, b, rows)
}

// defaultPool is the pool the package-level MatMul variants use. It is
// created lazily on first use (sized by GOMAXPROCS) and replaced by
// Configure.
var defaultPool atomic.Pointer[Pool]

// Configure replaces the shared kernel pool used by the package-level GEMM
// functions. It is meant for process startup (flag parsing, facade options)
// and must not race with in-flight kernels; the previous pool's workers are
// stopped. Returns the resolved configuration.
func Configure(cfg KernelConfig) KernelConfig {
	p := NewPool(cfg)
	if old := defaultPool.Swap(p); old != nil {
		old.Close()
	}
	return p.cfg
}

// CurrentConfig reports the configuration of the shared kernel pool,
// creating it with defaults if it does not exist yet.
func CurrentConfig() KernelConfig { return sharedPool().cfg }

// sharedPool returns the process-wide kernel pool, building it on first use.
//
//mepipe:coldalloc one-time lazy pool construction; every later call is an atomic load
func sharedPool() *Pool {
	for {
		if p := defaultPool.Load(); p != nil {
			return p
		}
		p := NewPool(KernelConfig{})
		if defaultPool.CompareAndSwap(nil, p) {
			return p
		}
		p.Close()
	}
}

func dispatch(kind gemmKind, dst, a, b *Matrix, rows int, flops int64) {
	sharedPool().gemm(kind, dst, a, b, rows, flops)
}
