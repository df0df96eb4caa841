// Package verify statically certifies pipeline schedules before anything
// executes them. Where sched.Validate answers "is this table well formed",
// Certify proves the two properties the paper's correctness argument rests
// on (§4–§5) and produces an actionable counterexample when either fails:
//
//   - Deadlock-freedom. The graph over (stage, op) nodes formed by
//     per-stage program order plus the data dependencies of sched.Deps
//     admits a topological order. Because the runtime dedicates one
//     1-buffered channel to every cross-stage edge and each edge carries
//     exactly one tensor per iteration, sends never block — so acyclicity
//     of this graph is not merely necessary but sufficient: sequential
//     workers draining their op lists in order cannot deadlock. On
//     failure, Certify reports a minimal dependency cycle, not just the
//     fact of one.
//
//   - Memory safety. Sweeping each stage's op list in program order with
//     the simulator's retention rules (F retains a family's activations,
//     fused B releases them, split BAct adds gradient retention, the
//     family's last W/WPiece releases everything) yields the stage's peak
//     static retention. Under a Budget the peak must fit the per-stage
//     bound; the counterexample names the op at which the sweep first
//     overflows and what was live.
//
// Certification is wired in as a pre-flight gate: strategy evaluation,
// the façade's Evaluate/Search, and pipeline.New reject schedules that do
// not certify with an error wrapping errs.ErrUncertified, and the sched
// generator fuzz harness requires every generated schedule to certify.
package verify

import (
	"fmt"
	"strings"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// Node is one vertex of the certification graph: an op on a stage.
type Node struct {
	Stage int
	Op    sched.Op
}

func (n Node) String() string { return fmt.Sprintf("%v@stage%d", n.Op, n.Stage) }

// Certificate summarises a successful certification. It is evidence, not
// a capability: holding one means the checks below ran and passed for the
// schedule named in it.
type Certificate struct {
	Schedule string

	// Nodes and Edges size the certified dependency graph; CrossEdges
	// counts the edges that carry cross-stage communication (and
	// therefore each need a dedicated channel in the runtime).
	Nodes, Edges, CrossEdges int

	// PeakFamilies[k] is stage k's peak count of concurrently retained
	// activation/weight-gradient families in the static table sweep.
	PeakFamilies []int

	// PeakBytes[k] is stage k's peak retained bytes under the Budget's
	// footprint model. Nil when certification ran without a Budget.
	PeakBytes []int64
}

func (c *Certificate) String() string {
	return fmt.Sprintf("certificate{%s: %d nodes, %d edges (%d cross-stage), peak families %v}",
		c.Schedule, c.Nodes, c.Edges, c.CrossEdges, c.PeakFamilies)
}

// Options configures one Certify call.
type Options struct {
	// Budget, when non-nil, additionally certifies the static memory
	// sweep against per-stage bounds. Without it only structural
	// properties (deadlock-freedom, completeness) are certified.
	Budget *Budget

	// AssumeComplete skips the op-family completeness check. It is sound
	// only when the schedule's op multiset has already been certified and
	// the candidate merely permutes op positions — the schedule
	// optimizer's inner loop, where every move preserves the multiset by
	// construction and completeness would otherwise dominate the
	// per-candidate certification cost. Deadlock-freedom and the memory
	// sweep are always re-proved.
	AssumeComplete bool
}

// CycleError reports a dependency cycle: the minimal counterexample to
// deadlock-freedom. Cycle[i] must complete before Cycle[i+1] can run (the
// last node feeds the first), so no executor can run any of them.
type CycleError struct {
	Schedule string
	Cycle    []Node
	// Kind[i] says why Cycle[i] precedes Cycle[(i+1)%len]: "order" for
	// per-stage program order, "dep" for a data dependency.
	Kind []string
}

func (e *CycleError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %s deadlocks: dependency cycle of %d ops: ", e.Schedule, len(e.Cycle))
	for i, n := range e.Cycle {
		if i > 0 {
			fmt.Fprintf(&b, " -%s-> ", e.Kind[i-1])
		}
		b.WriteString(n.String())
	}
	fmt.Fprintf(&b, " -%s-> %s", e.Kind[len(e.Kind)-1], e.Cycle[0])
	return b.String()
}

func (e *CycleError) Unwrap() error { return errs.ErrUncertified }

// MissingDepError reports a dependency whose producer op appears nowhere
// in the schedule — a cross-stage Dep without a sender, or a local input
// that was never scheduled.
type MissingDepError struct {
	Schedule string
	Node     Node
	Dep      sched.Dep
}

func (e *MissingDepError) Error() string {
	return fmt.Sprintf("verify: %s: %v depends on %v@stage%d, which is not scheduled (no sender)",
		e.Schedule, e.Node, e.Dep.Op, e.Dep.Stage)
}

func (e *MissingDepError) Unwrap() error { return errs.ErrUncertified }

// IncompleteError reports an op family with a missing member: a forward
// without its backward, a split backward without its weight-gradient
// work, or vice versa.
type IncompleteError struct {
	Schedule string
	Stage    int
	Missing  sched.Op
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("verify: %s stage %d: incomplete op family: missing %v", e.Schedule, e.Stage, e.Missing)
}

func (e *IncompleteError) Unwrap() error { return errs.ErrUncertified }

// ShapeError reports a malformed table (bad dimensions, out-of-range or
// duplicate ops) that certification cannot proceed past.
type ShapeError struct {
	Schedule string
	Detail   string
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("verify: %s: %s", e.Schedule, e.Detail)
}

func (e *ShapeError) Unwrap() error { return errs.ErrUncertified }

// Certify proves the schedule deadlock-free and complete — and, when
// opts.Budget is set, that its swept activation retention fits the
// per-stage memory bound. The returned error always wraps
// errs.ErrUncertified and carries a minimal counterexample
// (*CycleError, *BudgetError, *MissingDepError, *IncompleteError or
// *ShapeError).
func Certify(s *sched.Schedule, opts Options) (*Certificate, error) {
	if s == nil {
		return nil, &ShapeError{Schedule: "<nil>", Detail: "no schedule"}
	}
	if s.P <= 0 || s.V <= 0 || s.S <= 0 || s.N <= 0 {
		return nil, &ShapeError{Schedule: s.String(), Detail: "non-positive shape"}
	}
	if len(s.Stages) != s.P {
		return nil, &ShapeError{Schedule: s.String(),
			Detail: fmt.Sprintf("%d stage lists, want %d", len(s.Stages), s.P)}
	}
	if s.Place == nil {
		return nil, &ShapeError{Schedule: s.String(), Detail: "no chunk placement"}
	}
	if !opts.AssumeComplete {
		if err := checkComplete(s); err != nil {
			return nil, err
		}
	}
	cert := &Certificate{Schedule: s.String()}
	sc := certPool.Get().(*certScratch)
	defer certPool.Put(sc)
	if err := checkAcyclic(s, cert, sc); err != nil {
		return nil, err
	}
	if err := sweep(s, opts.Budget, cert, sc); err != nil {
		return nil, err
	}
	return cert, nil
}

// checkComplete verifies that every op is in range, unique, and that
// every (micro, slice, chunk) family has all its members: an F, and a B
// (fused) or BAct plus W/WPieces (split). Presence is tracked in a dense
// bitset over the arithmetic op index — no map, no per-family allocation.
func checkComplete(s *sched.Schedule) error {
	x := sched.IndexOf(s)
	base := 0
	seen := make([]bool, x.PerStage())
	for k, ops := range s.Stages {
		for i := range seen {
			seen[i] = false
		}
		for _, op := range ops {
			if op.Micro < 0 || op.Micro >= s.N || op.Slice < 0 || op.Slice >= s.S ||
				op.Chunk < 0 || op.Chunk >= s.V || op.Piece < 0 {
				return &ShapeError{Schedule: s.String(),
					Detail: fmt.Sprintf("stage %d: op %v out of range", k, op)}
			}
			if bad := kindMismatch(s, op); bad != "" {
				return &ShapeError{Schedule: s.String(),
					Detail: fmt.Sprintf("stage %d: op %v %s", k, op, bad)}
			}
			id := int(x.ID(k, op)) - base
			if seen[id] {
				return &ShapeError{Schedule: s.String(),
					Detail: fmt.Sprintf("stage %d: duplicate op %v", k, op)}
			}
			seen[id] = true
		}
		for m := 0; m < s.N; m++ {
			for i := 0; i < s.S; i++ {
				for j := 0; j < s.V; j++ {
					if op, ok := missingFamilyOp(s, x, seen, base, k, m, i, j); !ok {
						return &IncompleteError{Schedule: s.String(), Stage: k, Missing: op}
					}
				}
			}
		}
		base += x.PerStage()
	}
	return nil
}

// missingFamilyOp scans one family's members under the schedule's
// backward mode — F, then B (fused) or BAct followed by W or its pieces
// (split) — and returns the first absent one (ok=false), if any.
func missingFamilyOp(s *sched.Schedule, x sched.OpIndex, seen []bool, base, k, m, i, j int) (sched.Op, bool) {
	probe := func(op sched.Op) bool { return seen[int(x.ID(k, op))-base] }
	f := sched.Op{Kind: sched.F, Micro: m, Slice: i, Chunk: j}
	if !probe(f) {
		return f, false
	}
	switch {
	case !s.SplitBW:
		b := sched.Op{Kind: sched.B, Micro: m, Slice: i, Chunk: j}
		if !probe(b) {
			return b, false
		}
	case s.WPieces == 0:
		b := sched.Op{Kind: sched.BAct, Micro: m, Slice: i, Chunk: j}
		if !probe(b) {
			return b, false
		}
		w := sched.Op{Kind: sched.W, Micro: m, Slice: i, Chunk: j}
		if !probe(w) {
			return w, false
		}
	default:
		b := sched.Op{Kind: sched.BAct, Micro: m, Slice: i, Chunk: j}
		if !probe(b) {
			return b, false
		}
		for p := 0; p < s.WPieces; p++ {
			w := sched.Op{Kind: sched.WPiece, Micro: m, Slice: i, Chunk: j, Piece: p}
			if !probe(w) {
				return w, false
			}
		}
	}
	return sched.Op{}, true
}

// kindMismatch reports why op's kind is inexpressible under the
// schedule's backward mode ("" when fine).
func kindMismatch(s *sched.Schedule, op sched.Op) string {
	switch op.Kind {
	case sched.F:
	case sched.B:
		if s.SplitBW {
			return "is a fused backward in a split schedule"
		}
	case sched.BAct:
		if !s.SplitBW {
			return "is a split backward in a fused schedule"
		}
	case sched.W:
		if !s.SplitBW || s.WPieces > 0 {
			return "is a whole weight-gradient op this schedule does not use"
		}
	case sched.WPiece:
		if !s.SplitBW || s.WPieces == 0 || op.Piece >= s.WPieces {
			return fmt.Sprintf("piece is out of range (w_pieces=%d)", s.WPieces)
		}
	default:
		return "has an unknown kind"
	}
	return ""
}
