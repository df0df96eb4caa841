// Package sched defines the pipeline-schedule intermediate representation
// and the schedule generators for every system the paper evaluates: GPipe,
// DAPPLE (1F1B), virtual pipeline parallelism (VPP), Hanayo-style wave
// scheduling, TeraPipe (sequence pipeline parallelism), zero-bubble (ZB-1P,
// ZBV), and the paper's contribution, SVPP — sequence virtual pipeline
// parallelism with memory-limited variants and backward rescheduling.
//
// A schedule is an *order*, not a timetable: each pipeline stage carries an
// ordered list of typed operations, and execution times emerge from
// dependencies (in the discrete-event simulator) or from actual computation
// (in the goroutine runtime). The explicit "bubbles" of the paper's figures
// are the stalls this ordering induces.
package sched

import "fmt"

// Kind identifies the operation class.
type Kind uint8

const (
	// F is a forward pass of one slice of one micro-batch through the
	// layers of one model chunk.
	F Kind = iota
	// B is a fused backward pass (activation and weight gradients
	// together), as run by GPipe, DAPPLE, VPP, Hanayo and TeraPipe.
	B
	// BAct is the activation-gradient half of a split backward pass
	// (zero-bubble style, also used by MEPipe).
	BAct
	// W is the weight-gradient half of a split backward pass at whole-op
	// granularity (ZB-1P / ZBV).
	W
	// WPiece is a single weight-gradient GEMM (§5 fine-grained
	// decomposition). Op.Piece selects which GEMM.
	WPiece
)

// String returns the compact mnemonic used in rendered timelines.
func (k Kind) String() string {
	switch k {
	case F:
		return "F"
	case B:
		return "B"
	case BAct:
		return "b"
	case W:
		return "W"
	case WPiece:
		return "w"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one unit of scheduled work on a stage.
type Op struct {
	Kind  Kind
	Micro int // micro-batch index, 0-based
	Slice int // slice index within the micro-batch (0 for non-SPP systems)
	Chunk int // local model-chunk index on this stage (0 for VP=1)
	Piece int // W-GEMM piece index for WPiece, else 0
}

// Key returns the op's identity without the Piece field, so the activation
// lifetime of an (F, BAct, W…) family can be tracked as one unit.
func (o Op) Key() Op { k := o; k.Piece = 0; k.Kind = F; return k }

func (o Op) String() string {
	if o.Kind == WPiece {
		return fmt.Sprintf("%s[m%d s%d c%d p%d]", o.Kind, o.Micro, o.Slice, o.Chunk, o.Piece)
	}
	return fmt.Sprintf("%s[m%d s%d c%d]", o.Kind, o.Micro, o.Slice, o.Chunk)
}

// Placement maps model chunks to pipeline stages. Global chunk g is the g-th
// group of consecutive layers; the forward pass visits chunks 0..PV-1 in
// order, the backward pass in reverse.
type Placement interface {
	// Host returns the stage and local chunk index hosting global chunk g.
	Host(g int) (stage, local int)
	// Global returns the global chunk index of (stage, local).
	Global(stage, local int) int
	// Stages and ChunksPerStage describe the shape.
	Stages() int
	ChunksPerStage() int
}

// RoundRobin places global chunk g on stage g mod p — the Megatron-LM
// interleaved layout (Fig 4(b) of the paper).
type RoundRobin struct{ P, V int }

func (r RoundRobin) Host(g int) (int, int)   { return g % r.P, g / r.P }
func (r RoundRobin) Global(stage, l int) int { return l*r.P + stage }
func (r RoundRobin) Stages() int             { return r.P }
func (r RoundRobin) ChunksPerStage() int     { return r.V }

// Wave places chunks in a V shape for v = 2: stage k hosts global chunks k
// and 2p−1−k, so the forward wave bounces off the last stage and returns —
// the Hanayo / ZBV layout.
type Wave struct{ P int }

func (w Wave) Host(g int) (int, int) {
	if g < w.P {
		return g, 0
	}
	return 2*w.P - 1 - g, 1
}
func (w Wave) Global(stage, l int) int {
	if l == 0 {
		return stage
	}
	return 2*w.P - 1 - stage
}
func (w Wave) Stages() int         { return w.P }
func (w Wave) ChunksPerStage() int { return 2 }

// Schedule is a complete per-iteration pipeline program.
type Schedule struct {
	Name string

	P int // pipeline stages
	V int // chunks per stage (virtual pipeline size)
	S int // slices per micro-batch (sequence pipeline size)
	N int // micro-batches

	// SplitBW records whether backward passes are split into BAct + W
	// (zero-bubble style). Fused-B schedules contain only F and B ops.
	SplitBW bool
	// WPieces is the number of WPiece GEMMs each weight-gradient op is
	// decomposed into (0 when W is scheduled whole or B is fused).
	WPieces int

	Place Placement

	// Stages[k] is the ordered op list of stage k.
	Stages [][]Op

	// back caches the dense dependency table (see DepTable); it is a
	// pure function of the shape and placement, not of Stages. For a
	// schedule Generate built it also holds the slab of the stage lists
	// (see Release).
	back *backing
}

// TotalChunks returns P·V, the number of global model chunks.
func (s *Schedule) TotalChunks() int { return s.P * s.V }

// OpsPerStage returns the expected op count per stage given the schedule's
// shape, used by validation.
func (s *Schedule) OpsPerStage() int {
	fb := s.N * s.S * s.V // forwards
	if !s.SplitBW {
		return 2 * fb
	}
	if s.WPieces > 0 {
		return fb * (2 + s.WPieces)
	}
	return 3 * fb
}

func (s *Schedule) String() string {
	return fmt.Sprintf("%s{p=%d v=%d s=%d n=%d split=%v}", s.Name, s.P, s.V, s.S, s.N, s.SplitBW)
}
