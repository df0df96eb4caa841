package obs

import (
	"fmt"
	"sort"
	"strings"

	"mepipe/internal/sched"
)

// histBounds are the queue-wait histogram bucket upper bounds in seconds
// (log-spaced from 1µs to 10s, with a catch-all final bucket).
var histBounds = [numHistBounds]float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

const numHistBounds = 8

// Histogram is a fixed-bucket latency histogram (bounds in histBounds).
type Histogram struct {
	Buckets [numHistBounds + 1]int
	Count   int
	Sum     float64
	Max     float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	for i, b := range histBounds {
		if v <= b {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(histBounds)]++
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// String renders the non-empty buckets compactly, e.g. "≤1ms:3 ≤10ms:1".
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "empty"
	}
	var parts []string
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if i < len(histBounds) {
			parts = append(parts, fmt.Sprintf("≤%gs:%d", histBounds[i], n))
		} else {
			parts = append(parts, fmt.Sprintf(">%gs:%d", histBounds[len(histBounds)-1], n))
		}
	}
	return strings.Join(parts, " ")
}

// StageMetrics aggregates one stage's events.
type StageMetrics struct {
	Ops int // executed op events

	// Busy seconds by op class.
	Forward, Backward, Weight float64
	// Tail is the seconds after the stage's last op until its iteration
	// ends: the optimizer step plus gradient synchronisation (simulator
	// traces with a tail time only).
	Tail float64

	// StallTime is idle seconds by cause ("dep", "comm").
	StallTime map[string]float64
	// QueueWait is the distribution of stall durations.
	QueueWait Histogram

	// Communication in and out of the stage.
	BytesIn, BytesOut int64
	CommIn, CommOut   int

	// Memory high-water and churn.
	PeakBytes  int64
	AllocBytes int64

	// GemmFLOPs is the floating-point work of the stage's GEMMs (runtime
	// traces only; the simulator does not model FLOPs).
	GemmFLOPs int64

	// Dynamic §5 engine behaviour: weight-gradient ops drained into
	// stalls, and forwards deferred by the activation budget.
	Drained      int
	BudgetStalls int

	// Resilience: faults injected or hit, checkpoints taken, restores
	// performed (RestoreTime is their total span), ops re-executed
	// during restore-and-replay, and transient-send retries.
	Faults      int
	Checkpoints int
	Restores    int
	RestoreTime float64
	Replayed    int
	Retries     int
}

// Snapshot is the aggregated view of one traced iteration — the metrics
// half of the observability layer, attached to bench experiment reports.
type Snapshot struct {
	Stages   []StageMetrics
	Makespan float64
	Bubble   float64
	// PeakBytes is the maximum retained bytes over all stages.
	PeakBytes int64
	// CommBytes is the total cross-stage traffic.
	CommBytes int64
	// StallTime is the total idle seconds by cause across stages.
	StallTime map[string]float64
	// GemmFLOPs is the total GEMM work across stages (runtime traces).
	GemmFLOPs int64
}

// Snapshot aggregates the trace into per-stage counters and histograms.
func (t *Trace) Snapshot() *Snapshot {
	s := &Snapshot{
		Stages:    make([]StageMetrics, t.Stages),
		Makespan:  t.Makespan,
		Bubble:    t.Bubble,
		StallTime: map[string]float64{},
	}
	for k := range s.Stages {
		s.Stages[k].StallTime = map[string]float64{}
	}
	for _, e := range t.Events {
		if e.Stage < 0 || e.Stage >= len(s.Stages) {
			continue
		}
		m := &s.Stages[e.Stage]
		switch e.Kind {
		case EvOp:
			m.Ops++
			switch e.Op.Kind {
			case sched.F:
				m.Forward += e.Dur()
			case sched.B, sched.BAct:
				m.Backward += e.Dur()
			case sched.W, sched.WPiece:
				m.Weight += e.Dur()
			}
			if strings.HasPrefix(e.Cause, "drain") {
				m.Drained++
			}
			if e.Cause == "replay" {
				m.Replayed++
			}
			m.GemmFLOPs += e.FLOPs
			s.GemmFLOPs += e.FLOPs
			m.AllocBytes += e.Bytes
		case EvStall:
			m.StallTime[e.Cause] += e.Dur()
			m.QueueWait.Observe(e.Dur())
			s.StallTime[e.Cause] += e.Dur()
		case EvComm:
			m.BytesIn += e.Bytes
			m.CommIn++
			if e.From >= 0 && e.From < len(s.Stages) {
				s.Stages[e.From].BytesOut += e.Bytes
				s.Stages[e.From].CommOut++
			}
			s.CommBytes += e.Bytes
		case EvAlloc:
			m.AllocBytes += e.Bytes
			if e.Live > m.PeakBytes {
				m.PeakBytes = e.Live
			}
		case EvFree:
			if e.Live > m.PeakBytes {
				m.PeakBytes = e.Live
			}
		case EvBudget:
			m.BudgetStalls++
		case EvFault:
			m.Faults++
		case EvCkpt:
			m.Checkpoints++
		case EvRestore:
			m.Restores++
			m.RestoreTime += e.Dur()
		case EvRetry:
			m.Retries++
		case EvTail:
			m.Tail += e.Dur()
		}
	}
	for k := range s.Stages {
		if s.Stages[k].PeakBytes > s.PeakBytes {
			s.PeakBytes = s.Stages[k].PeakBytes
		}
	}
	return s
}

// Summary renders the snapshot as short human-readable lines (one per
// stage plus a total), for attaching to bench reports.
func (s *Snapshot) Summary() []string {
	out := []string{fmt.Sprintf(
		"makespan %.4g s, bubble %.1f%%, peak %.0f MiB retained, %.1f MiB cross-stage traffic",
		s.Makespan, 100*s.Bubble, float64(s.PeakBytes)/(1<<20), float64(s.CommBytes)/(1<<20))}
	if s.GemmFLOPs > 0 && s.Makespan > 0 {
		out = append(out, fmt.Sprintf(
			"compute: %.3g GFLOP at %.2f GFLOP/s aggregate",
			float64(s.GemmFLOPs)/1e9, float64(s.GemmFLOPs)/1e9/s.Makespan))
	}
	causes := make([]string, 0, len(s.StallTime))
	for c := range s.StallTime {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		out = append(out, fmt.Sprintf("stall[%s] %.4g s total", c, s.StallTime[c]))
	}
	var faults, ckpts, restores, replayed, retries int
	for _, m := range s.Stages {
		faults += m.Faults
		ckpts += m.Checkpoints
		restores += m.Restores
		replayed += m.Replayed
		retries += m.Retries
	}
	if faults+ckpts+restores+retries > 0 {
		out = append(out, fmt.Sprintf(
			"resilience: %d faults, %d checkpoints, %d restores (%d ops replayed), %d retries",
			faults, ckpts, restores, replayed, retries))
	}
	return out
}
