package v1

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
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

// SweepPlan is a compiled sweep request.
type SweepPlan struct {
	Systems  []strategy.System
	Model    config.Model
	Cluster  cluster.Cluster
	Training config.Training
	Space    strategy.SearchSpace
	Top      int
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

// Normalize returns the canonical form of the sweep request: version
// pinned, presets expanded, defaults filled, and the system list spelled
// out in canonical lower-case (an empty list expands to every system, so
// "all by default" and "all spelled out" hash identically). The receiver
// is not modified; failures wrap ErrBadRequest.
func (r *SweepRequest) Normalize() (*SweepRequest, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: empty request", ErrBadRequest)
	}
	if r.API != "" && r.API != Version {
		return nil, fmt.Errorf("%w: unsupported api version %q (this server speaks %q)", ErrBadRequest, r.API, Version)
	}
	systems, err := sweepSystems(r.Systems)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(systems))
	for i, sys := range systems {
		names[i] = SystemName(sys)
	}
	m, err := r.Model.Model()
	if err != nil {
		return nil, err
	}
	cl, err := r.Cluster.Cluster()
	if err != nil {
		return nil, err
	}
	if r.Training.GlobalBatch <= 0 {
		return nil, fmt.Errorf("%w: training.global_batch %d must be positive", ErrBadRequest, r.Training.GlobalBatch)
	}
	tr := r.Training.Training()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.Top < 0 {
		return nil, fmt.Errorf("%w: top %d must be non-negative", ErrBadRequest, r.Top)
	}
	return &SweepRequest{
		API:      Version,
		Systems:  names,
		Model:    ModelFrom(m),
		Cluster:  ClusterFrom(cl),
		Training: TrainingFrom(tr),
		Space:    SpaceFrom(r.Space.Space()),
		Top:      r.Top,
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

// Compile normalizes the request and converts it to domain values.
func (r *SweepRequest) Compile() (*SweepPlan, error) {
	norm, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	systems, err := sweepSystems(norm.Systems)
	if err != nil {
		return nil, err
	}
	m, err := norm.Model.Model()
	if err != nil {
		return nil, err
	}
	cl, err := norm.Cluster.Cluster()
	if err != nil {
		return nil, err
	}
	return &SweepPlan{
		Systems:  systems,
		Model:    m,
		Cluster:  cl,
		Training: norm.Training.Training(),
		Space:    norm.Space.Space(),
		Top:      norm.Top,
	}, nil
}

// Key returns the sweep request's content address: the hex SHA-256 of the
// "sweep" operation tag plus the canonical JSON of the normalized
// document.
func (r *SweepRequest) Key() (string, error) {
	norm, err := r.Normalize()
	if err != nil {
		return "", err
	}
	doc, err := json.Marshal(struct {
		Op  string        `json:"op"`
		Req *SweepRequest `json:"req"`
	}{Op: "sweep", Req: norm})
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
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
