package sim

import (
	"fmt"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// Utilization breaks one stage's iteration down by op class — the numbers
// behind the Fig 11/12 timelines: how much of the makespan went to
// forwards, backward halves, weight-gradient work, and bubbles.
type Utilization struct {
	Forward  float64
	Backward float64 // fused B or BAct
	Weight   float64 // W and WPiece
	Tail     float64 // optimizer step + gradient synchronisation
	Idle     float64
	// Sums to the iteration makespan.
	Total float64
}

// Fractions returns the breakdown normalised by the makespan.
func (u Utilization) Fractions() (f, b, w, tail, idle float64) {
	if u.Total == 0 {
		return 0, 0, 0, 0, 0
	}
	return u.Forward / u.Total, u.Backward / u.Total, u.Weight / u.Total,
		u.Tail / u.Total, u.Idle / u.Total
}

// errNoSpans rejects statistics over a result whose spans were dropped.
// MakespanOnly results used to flow through these reconstructions and come
// out as plausible-looking all-tail/all-idle breakdowns and empty memory
// curves; refusing with a classifiable sentinel is the fix.
func errNoSpans(what string) error {
	return fmt.Errorf("sim: %s needs per-op spans, but the result was produced with MakespanOnly (re-run without it): %w", what, errs.ErrIncompatible)
}

// StageUtilization computes the per-class busy time of stage k against the
// whole-iteration makespan. The gap between the stage's last op and its
// recorded finish is the tail (optimizer step plus gradient sync). It
// fails with a wrapped errs.ErrIncompatible when the result carries no
// spans (MakespanOnly).
func (r *Result) StageUtilization(k int) (Utilization, error) {
	if !r.SpansRecorded {
		return Utilization{}, errNoSpans("stage utilization")
	}
	u := Utilization{Total: r.IterTime}
	lastEnd := 0.0
	for _, sp := range r.Stages[k].Spans {
		d := sp.End - sp.Start
		switch sp.Op.Kind {
		case sched.F:
			u.Forward += d
		case sched.B, sched.BAct:
			u.Backward += d
		case sched.W, sched.WPiece:
			u.Weight += d
		}
		if sp.End > lastEnd {
			lastEnd = sp.End
		}
	}
	u.Tail = r.Stages[k].Finish - lastEnd
	if u.Tail < 0 {
		u.Tail = 0
	}
	u.Idle = u.Total - u.Forward - u.Backward - u.Weight - u.Tail
	if u.Idle < 0 {
		u.Idle = 0
	}
	return u, nil
}

// MeanUtilization averages the per-stage breakdowns. Like
// StageUtilization, it fails with a wrapped errs.ErrIncompatible on a
// span-less (MakespanOnly) result.
func (r *Result) MeanUtilization() (Utilization, error) {
	var u Utilization
	if !r.SpansRecorded {
		return u, errNoSpans("mean utilization")
	}
	if len(r.Stages) == 0 {
		return u, nil
	}
	for k := range r.Stages {
		s, err := r.StageUtilization(k)
		if err != nil {
			return Utilization{}, err
		}
		u.Forward += s.Forward
		u.Backward += s.Backward
		u.Weight += s.Weight
		u.Tail += s.Tail
		u.Idle += s.Idle
		u.Total = s.Total
	}
	n := float64(len(r.Stages))
	u.Forward /= n
	u.Backward /= n
	u.Weight /= n
	u.Tail /= n
	u.Idle /= n
	return u, nil
}

// MemPoint is one step of a stage's retained-bytes curve.
type MemPoint struct {
	Time  float64
	Bytes int64
}

// MemorySeries reconstructs stage k's retained activation bytes over time
// from the executed spans — the per-stage curve behind Fig 1's peak values
// — stepping each span through the retention rule the simulator itself
// applies (sched.RetentionOf). It fails with a wrapped
// errs.ErrIncompatible when the result carries no spans (MakespanOnly) or
// a span's op is outside s's shape.
func (r *Result) MemorySeries(s *sched.Schedule, costs Costs, k int) ([]MemPoint, error) {
	if !r.SpansRecorded {
		return nil, errNoSpans("memory series")
	}
	x := sched.IndexOf(s)
	held := make([]int64, x.Families())   // by family: retained bytes
	pieces := make([]int32, x.Families()) // by family: WPieces run so far
	live := int64(0)
	out := []MemPoint{{0, 0}}
	for _, sp := range r.Stages[k].Spans {
		id := x.ID(k, sp.Op)
		if id < 0 {
			return nil, fmt.Errorf("sim: memory series: op %v@stage%d is outside %s: %w", sp.Op, k, s, errs.ErrIncompatible)
		}
		f := x.FamilyOf(id)
		switch sched.PieceStep(sp.Op.Kind, &pieces[f], s.WPieces) {
		case sched.RetainAct:
			b := costs.ActBytes(k, sp.Op)
			held[f] += b
			live += b
		case sched.RetainGrad:
			b := costs.GradBytes(k, sp.Op)
			held[f] += b
			live += b
		case sched.Release:
			live -= held[f]
			held[f] = 0
		}
		out = append(out, MemPoint{sp.End, live})
	}
	return out, nil
}
