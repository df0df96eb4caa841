package opt

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// The discovered-schedule artifact: a fully specified optimization point
// (shape, cost model, memory budget), the best preset at that point, the
// optimizer configuration that beat it, and the discovered schedule
// itself. The checked-in instance under testdata/ is the regression
// gate's subject — CI re-certifies and re-simulates it on every push and
// fails if it stops beating its recorded preset baseline, and replays its
// search to the recorded schedule bytes, search counters and best time
// (TestDiscoveredBytesPinned).

// ArtifactPreset pins the best preset at the artifact's point: the SVPP
// generator parameters to rebuild it and its simulated iteration time.
type ArtifactPreset struct {
	Name       string  `json:"name"`
	F          int     `json:"f"`
	Split      bool    `json:"split"`
	Reschedule bool    `json:"reschedule"`
	IterTime   float64 `json:"iter_time"`
}

// ArtifactOpt pins the optimizer run that discovered the schedule.
type ArtifactOpt struct {
	Seed      int64   `json:"seed"`
	Iters     int     `json:"iters"`
	Proposals int     `json:"proposals"`
	IterTime  float64 `json:"iter_time"`
}

// Artifact is the serialized record of one discovered schedule.
type Artifact struct {
	Note string `json:"note"`

	P int `json:"p"`
	V int `json:"v"`
	S int `json:"s"`
	N int `json:"n"`

	// Est, ActBytes and GradBytes reconstruct the uniform cost model the
	// point was evaluated under; SlotBudget the per-stage family-slot
	// memory budget.
	Est        sched.UniformEst `json:"est"`
	ActBytes   int64            `json:"act_bytes"`
	GradBytes  int64            `json:"grad_bytes"`
	SlotBudget []int            `json:"slot_budget"`

	Preset ArtifactPreset `json:"preset"`
	Opt    ArtifactOpt    `json:"opt"`

	// Schedule is the discovered schedule in sched.Save form.
	Schedule json.RawMessage `json:"schedule"`
}

//go:embed testdata/discovered.json
var discoveredJSON []byte

// Discovered parses the checked-in discovered-schedule artifact.
func Discovered() (*Artifact, error) {
	return LoadArtifact(bytes.NewReader(discoveredJSON))
}

// LoadArtifact reads an artifact written by Artifact.Save.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("opt: decoding artifact: %w", err)
	}
	if a.P <= 0 || a.V <= 0 || a.S <= 0 || a.N <= 0 {
		return nil, fmt.Errorf("opt: artifact has non-positive shape: %w", errs.ErrIncompatible)
	}
	if len(a.SlotBudget) != a.P {
		return nil, fmt.Errorf("opt: artifact budget has %d stages, want %d: %w", len(a.SlotBudget), a.P, errs.ErrIncompatible)
	}
	return &a, nil
}

// Save writes the artifact as indented JSON (stable bytes for diffs).
func (a *Artifact) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Costs returns the point's uniform cost model.
func (a *Artifact) Costs() sim.UniformCosts {
	return sim.UniformCosts{Est: a.Est, Act: a.ActBytes, Grad: a.GradBytes}
}

// Budget returns the point's family-slot memory budget.
func (a *Artifact) Budget() *verify.Budget {
	return verify.SlotBudget(a.SlotBudget)
}

// PresetSchedule rebuilds the recorded best preset from its generator
// parameters.
func (a *Artifact) PresetSchedule() (*sched.Schedule, error) {
	return sched.SVPP(sched.SVPPOptions{
		P: a.P, V: a.V, S: a.S, N: a.N,
		F: a.Preset.F, Split: a.Preset.Split, Reschedule: a.Preset.Reschedule,
		Est: a.Est,
	})
}

// DiscoveredSchedule only decodes the embedded schedule; callers certify it.
func (a *Artifact) DiscoveredSchedule() (*sched.Schedule, error) {
	return sched.Load(bytes.NewReader(a.Schedule))
}

// BestPreset sweeps the SVPP preset family at the artifact's point —
// split × reschedule × f up to the micro-batch count — keeping only
// presets that certify under the budget, and returns the fastest, the
// first in generation order on a tie. This is the baseline the discovered
// schedule must beat, recomputed from scratch so the recorded iteration
// times cannot drift silently.
func (a *Artifact) BestPreset() (ArtifactPreset, *sched.Schedule, error) {
	costs := a.Costs()
	budget := a.Budget()
	var best ArtifactPreset
	var bestSched *sched.Schedule
	for _, split := range []bool{false, true} {
		for _, re := range []bool{false, true} {
			for f := 1; f <= a.N*a.S; f++ {
				s, err := sched.SVPP(sched.SVPPOptions{
					P: a.P, V: a.V, S: a.S, N: a.N,
					F: f, Split: split, Reschedule: re, Est: a.Est,
				})
				if err != nil {
					continue
				}
				if _, err := verify.Certify(s, verify.Options{Budget: budget}); err != nil {
					continue
				}
				r, err := sim.Run(sim.Options{Sched: s, Costs: costs})
				if err != nil || r.OOM {
					continue
				}
				if bestSched == nil || r.IterTime < best.IterTime-eps {
					best = ArtifactPreset{
						Name:       fmt.Sprintf("svpp f=%d split=%v resched=%v", f, split, re),
						F:          f,
						Split:      split,
						Reschedule: re,
						IterTime:   r.IterTime,
					}
					bestSched = s
				}
			}
		}
	}
	if bestSched == nil {
		return ArtifactPreset{}, nil, fmt.Errorf("opt: no SVPP preset certifies at the artifact's point: %w", errs.ErrIncompatible)
	}
	return best, bestSched, nil
}
