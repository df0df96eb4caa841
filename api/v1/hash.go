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

// Plan is a compiled request: the domain values every entry point
// ultimately consumes, those of the request's canonical document.
type Plan struct {
	// System is the searched or pinned system (every document but a
	// sweep's).
	System   strategy.System
	Model    config.Model
	Cluster  cluster.Cluster
	Training config.Training
	// Parallel is nil for pure search documents.
	Parallel *config.Parallel
	Space    strategy.SearchSpace
	// Top caps the candidates carried by a search response (0 = all).
	Top int
	// Systems lists a sweep's systems in response order (sweep only).
	Systems []strategy.System
	// Opt is the optimizer spec, defaults filled (optimize only).
	Opt OptSpec
}

// errEmpty rejects a nil request.
var errEmpty = fmt.Errorf("%w: empty request", ErrBadRequest)

// checkAPI rejects every wire version but this package's.
func checkAPI(api string) error {
	if api != "" && api != Version {
		return fmt.Errorf("%w: unsupported api version %q (this server speaks %q)", ErrBadRequest, api, Version)
	}
	return nil
}

// compileShared is the one compile step every planning document goes
// through. It validates and canonicalizes the fields all of them share:
// api version, model, cluster, training, search space and top. It returns
// the plan and the canonical document of those fields; the caller adds its
// own. A document that pins a strategy keeps a search space only if it
// spells one out.
func compileShared(r *PlanRequest) (*Plan, *PlanRequest, error) {
	if err := checkAPI(r.API); err != nil {
		return nil, nil, err
	}
	m, err := r.Model.Model()
	if err != nil {
		return nil, nil, err
	}
	cl, err := r.Cluster.Cluster()
	if err != nil {
		return nil, nil, err
	}
	if r.Training.GlobalBatch <= 0 {
		return nil, nil, fmt.Errorf("%w: training.global_batch %d must be positive", ErrBadRequest, r.Training.GlobalBatch)
	}
	tr := r.Training.Training()
	if err := tr.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.Top < 0 {
		return nil, nil, fmt.Errorf("%w: top %d must be non-negative", ErrBadRequest, r.Top)
	}
	p := &Plan{Model: m, Cluster: cl, Training: tr, Top: r.Top}
	c := &PlanRequest{
		API: Version, Model: ModelFrom(m), Cluster: ClusterFrom(cl),
		Training: TrainingFrom(tr), Top: r.Top,
	}
	if r.Space == nil && r.Parallel != nil {
		p.Space = strategy.DefaultSpace()
	} else if c.Space, p.Space, err = r.Space.canonical(); err != nil {
		return nil, nil, err
	}
	return p, c, nil
}

// compile runs the one compile step for op and adds the document's system
// and pinned strategy. It is the one place that decides which ops need a
// pinned strategy: simulate, optimize and trace evaluate one.
func (r *PlanRequest) compile(op string) (*Plan, *PlanRequest, error) {
	if r == nil {
		return nil, nil, errEmpty
	}
	p, c, err := compileShared(r)
	if err != nil {
		return nil, nil, err
	}
	if p.System, err = SystemByName(r.System); err != nil {
		return nil, nil, err
	}
	c.System = SystemName(p.System)
	if r.Parallel == nil {
		if op == "simulate" || op == "optimize" || op == "trace" {
			return nil, nil, fmt.Errorf("%w: %s needs a parallel strategy", ErrBadRequest, op)
		}
		return p, c, nil
	}
	par, err := r.Parallel.Parallel()
	if err != nil {
		return nil, nil, err
	}
	par = defaultParallel(par, p.System, p.Cluster)
	if err := par.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	spec := ParallelFrom(par)
	p.Parallel, c.Parallel = &par, &spec
	return p, c, nil
}

// defaultParallel fills the zero fields of a pinned strategy the way the
// CLIs always have: SPP defaults to 4 for the slice-level systems and 1
// otherwise, VP to the system's natural depth, CP to 1, and DP to
// whatever is left of the cluster.
func defaultParallel(par config.Parallel, sys strategy.System, cl cluster.Cluster) config.Parallel {
	if par.CP == 0 {
		par.CP = 1
	}
	if par.SPP == 0 {
		par.SPP = 1
		if sys == strategy.MEPipe || sys == strategy.TeraPipe {
			par.SPP = 4
		}
	}
	if par.VP == 0 {
		par.VP = 1
		if sys == strategy.VPP || sys == strategy.ZBV {
			par.VP = 2
		}
	}
	if par.DP == 0 && par.PP > 0 {
		if div := par.PP * par.CP * par.TPSize(); div > 0 && cl.GPUs()%div == 0 {
			par.DP = cl.GPUs() / div
		}
	}
	return par
}

// key is the content address of a canonical document under an operation
// ("search", "simulate", …): the hex SHA-256 of the operation tag plus the
// document's canonical JSON.
func key(op string, doc any) (string, error) {
	b, err := json.Marshal(struct {
		Op  string `json:"op"`
		Req any    `json:"req"`
	}{Op: op, Req: doc})
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ReadPlan is the request path of the cached endpoints. It strictly
// decodes op's document from body (a SweepRequest for "sweep", an
// OptimizeRequest for "optimize", a PlanRequest for "search" and
// "simulate"), compiles it once, and returns its plan and the key of its
// canonical document. Failures wrap ErrBadRequest.
//
// The result is a pure function of the body's bytes and op: no clock, no
// configuration, no server state. The server relies on that to answer
// repeated bytes from the cache through their digest without calling
// ReadPlan at all. If compiling ever reads server state, that state must
// go into the digest too.
func ReadPlan(op string, body io.Reader) (*Plan, string, error) {
	var (
		p     *Plan
		canon any
		err   error
	)
	switch op {
	case "sweep":
		var req SweepRequest
		if err = decode(body, &req); err == nil {
			p, canon, err = req.compile()
		}
	case "optimize":
		var req OptimizeRequest
		if err = decode(body, &req); err == nil {
			p, canon, err = req.compile()
		}
	default:
		var req PlanRequest
		if err = decode(body, &req); err == nil {
			p, canon, err = req.compile(op)
		}
	}
	if err != nil {
		return nil, "", err
	}
	k, err := key(op, canon)
	return p, k, err
}

// Normalize returns the canonical form of the request: version pinned,
// presets expanded to explicit dimensions, defaults filled (micro batch,
// SPP/VP system defaults, derived DP, default search space with sorted
// lists). Two documents that mean the same job normalize to byte-identical
// canonical JSON, which is what Key hashes. The receiver is not modified;
// failures wrap ErrBadRequest.
//
// Normalizing is a pure function of the document (and so of its bytes):
// the server caches a document's reply under the digest of its raw body on
// that promise (see ReadPlan).
func (r *PlanRequest) Normalize() (*PlanRequest, error) {
	_, c, err := r.compile("")
	return c, err
}

// Compile normalizes the request and converts it to domain values.
//
// It stays out of line: inlined, it would grow every caller and shift the
// alignment of the code linked after it, which moves benchmark timings.
//
//go:noinline
func (r *PlanRequest) Compile() (*Plan, error) {
	p, _, err := r.compile("")
	return p, err
}

// Key returns the request's content address for one operation ("search",
// "simulate", …): the hex SHA-256 of the operation tag plus the canonical
// JSON of the normalized document. Equivalent requests — preset vs
// explicit model, shuffled search lists, defaulted vs spelled-out fields —
// share a key; any semantic difference changes it.
func (r *PlanRequest) Key(op string) (string, error) {
	_, c, err := r.compile("")
	if err != nil {
		return "", err
	}
	return key(op, c)
}

// Compile compiles a trace document, which must pin its strategy.
func (r *TraceRequest) Compile() (*Plan, error) {
	p, _, err := r.PlanRequest.compile("trace")
	return p, err
}

// Wire defaults for optimizer settings, matching the opt package's own
// (spelled out here so the canonical document is explicit about what a
// defaulted request means, and its key stable against optimizer-default
// drift).
const (
	DefaultOptSeed      = 1
	DefaultOptIters     = 1500
	DefaultOptProposals = 4
)

// compile runs the one compile step of an optimize document: the plan
// compiled exactly like simulate (parallel required), the optimizer spec
// filled with the wire defaults.
func (r *OptimizeRequest) compile() (*Plan, *OptimizeRequest, error) {
	if r == nil {
		return nil, nil, errEmpty
	}
	p, c, err := r.PlanRequest.compile("optimize")
	if err != nil {
		return nil, nil, err
	}
	spec := OptSpec{}
	if r.Opt != nil {
		spec = *r.Opt
	}
	if spec.Iters < 0 {
		return nil, nil, fmt.Errorf("%w: opt.iters %d must be non-negative", ErrBadRequest, spec.Iters)
	}
	if spec.Proposals < 0 {
		return nil, nil, fmt.Errorf("%w: opt.proposals %d must be non-negative", ErrBadRequest, spec.Proposals)
	}
	if spec.Seed == 0 {
		spec.Seed = DefaultOptSeed
	}
	if spec.Iters == 0 {
		spec.Iters = DefaultOptIters
	}
	if spec.Proposals == 0 {
		spec.Proposals = DefaultOptProposals
	}
	p.Opt = spec
	return p, &OptimizeRequest{PlanRequest: *c, Opt: &spec}, nil
}

// Normalize returns the canonical form of an optimize request: the plan
// normalized exactly like simulate (parallel required), the optimizer
// spec filled with the wire defaults. Failures wrap ErrBadRequest. Like
// PlanRequest.Normalize it is a pure function of the document, which the
// server's raw-body cache aliases rely on (see ReadPlan).
func (r *OptimizeRequest) Normalize() (*OptimizeRequest, error) {
	_, c, err := r.compile()
	return c, err
}

// Key returns the optimize request's content address: the hex SHA-256 of
// the "optimize" operation tag plus the canonical JSON of the normalized
// document (optimizer spec included — the search is deterministic in it,
// so two requests share a key exactly when they discover the same
// schedule).
func (r *OptimizeRequest) Key() (string, error) {
	_, c, err := r.compile()
	if err != nil {
		return "", err
	}
	return key("optimize", c)
}
