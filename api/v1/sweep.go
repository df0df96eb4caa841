package v1

import (
	"fmt"
	"io"

	"mepipe/internal/strategy"
)

// SweepRequest asks POST /v1/sweep to grid-search several systems in one
// pass of the grid-search engine. It is the multi-system
// sibling of the search document: the same model/cluster/training/space
// fields, with a list of systems instead of one.
type SweepRequest struct {
	// API is the wire version; empty means "v1".
	API string `json:"api,omitempty"`
	// Systems lists the systems to sweep, in response order; empty means
	// all of them. Duplicates are rejected.
	Systems []string `json:"systems,omitempty"`

	Model    ModelSpec    `json:"model"`
	Cluster  ClusterSpec  `json:"cluster"`
	Training TrainingSpec `json:"training"`

	// Space bounds the shared search grid; nil selects the paper's
	// default space.
	Space *SpaceSpec `json:"space,omitempty"`

	// Top caps the ranked candidates carried per system; 0 returns all.
	Top int `json:"top,omitempty"`
}

// SweepStats mirrors strategy.SweepStats on the wire, with the derived
// ratios spelled out so clients need no arithmetic.
type SweepStats struct {
	GridPoints  int     `json:"grid_points"`
	Simulated   int     `json:"simulated"`
	GateSkipped int     `json:"gate_skipped"`
	Evaluated   int     `json:"evaluated"`
	Pruned      int     `json:"pruned"`
	PruneRate   float64 `json:"prune_rate"`
}

// SweepSystemResult is one system's slice of a sweep response — the same
// shape a /v1/search response has for that system, plus the per-system
// error SearchContext would have reported (e.g. "no candidate fits").
type SweepSystemResult struct {
	System     string      `json:"system"`
	Found      bool        `json:"found"`
	Best       *Candidate  `json:"best,omitempty"`
	Candidates []Candidate `json:"candidates"`
	Evaluated  int         `json:"evaluated"`
	Pruned     int         `json:"pruned,omitempty"`
	Error      string      `json:"error,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	API string `json:"api"`
	Key string `json:"key"`
	// Certified reports that every simulated candidate passed static
	// certification before it was timed.
	Certified bool                `json:"certified"`
	Systems   []SweepSystemResult `json:"systems"`
	Stats     SweepStats          `json:"stats"`
}

// DecodeSweepRequest reads one strict SweepRequest document.
func DecodeSweepRequest(r io.Reader) (*SweepRequest, error) {
	var req SweepRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// compile runs the one compile step of a sweep document and spells its
// system list out in canonical lower-case (an empty list expands to every
// system, so "all by default" and "all spelled out" hash identically).
func (r *SweepRequest) compile() (*Plan, *SweepRequest, error) {
	if r == nil {
		return nil, nil, errEmpty
	}
	p, c, err := compileShared(&PlanRequest{
		API: r.API, Model: r.Model, Cluster: r.Cluster,
		Training: r.Training, Space: r.Space, Top: r.Top,
	})
	if err != nil {
		return nil, nil, err
	}
	if p.Systems, err = sweepSystems(r.Systems); err != nil {
		return nil, nil, err
	}
	names := make([]string, len(p.Systems))
	for i, sys := range p.Systems {
		names[i] = SystemName(sys)
	}
	return p, &SweepRequest{
		API: c.API, Systems: names, Model: c.Model, Cluster: c.Cluster,
		Training: c.Training, Space: c.Space, Top: c.Top,
	}, nil
}

// sweepSystems parses the request's system list; empty means all systems.
func sweepSystems(names []string) ([]strategy.System, error) {
	if len(names) == 0 {
		return strategy.Systems(), nil
	}
	systems := make([]strategy.System, 0, len(names))
	seen := make(map[strategy.System]bool, len(names))
	for _, name := range names {
		sys, err := SystemByName(name)
		if err != nil {
			return nil, err
		}
		if seen[sys] {
			return nil, fmt.Errorf("%w: duplicate system %q in sweep", ErrBadRequest, name)
		}
		seen[sys] = true
		systems = append(systems, sys)
	}
	return systems, nil
}

// Normalize returns the canonical form of the sweep request: version
// pinned, presets expanded, defaults filled, and the system list spelled
// out in canonical lower-case. The receiver is not modified; failures wrap
// ErrBadRequest. Like PlanRequest.Normalize it is a pure function of the
// document (see ReadPlan).
func (r *SweepRequest) Normalize() (*SweepRequest, error) {
	_, c, err := r.compile()
	return c, err
}

// Compile normalizes the request and converts it to domain values.
func (r *SweepRequest) Compile() (*Plan, error) {
	p, _, err := r.compile()
	return p, err
}

// Key returns the sweep request's content address: the hex SHA-256 of the
// "sweep" operation tag plus the canonical JSON of the normalized
// document.
func (r *SweepRequest) Key() (string, error) {
	_, c, err := r.compile()
	if err != nil {
		return "", err
	}
	return key("sweep", c)
}

// SweepStatsFrom builds the wire form of the engine counters.
func SweepStatsFrom(st strategy.SweepStats) SweepStats {
	return SweepStats{
		GridPoints:  st.GridPoints,
		Simulated:   st.Simulated,
		GateSkipped: st.GateSkipped,
		Evaluated:   st.Evaluated,
		Pruned:      st.Pruned,
		PruneRate:   st.PruneRate(),
	}
}
