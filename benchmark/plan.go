package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"time"

	v1 "mepipe/api/v1"
	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/memplan"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/serve"
	"mepipe/internal/sim"
	"mepipe/internal/strategy"
	"mepipe/internal/verify"
)

// The planning point: Llama-13B dimensions on four 8×RTX 4090 servers (32
// GPUs), global batch 32, MEPipe over the paper's default search space.
// Global batch 32 rather than 64 halves the micro-batches per schedule, so
// an op takes about 50 ms and a run's time cap fits 250 timed ops.
// Documents differ only in the model's name, which changes the cache key
// but none of the planning work, so every cold op does identical work.
func planDoc(tag string, i int) []byte {
	m := v1.ModelFrom(config.Llama13B())
	m.Name = fmt.Sprintf("bench-%s-%d", tag, i)
	doc, err := json.Marshal(v1.PlanRequest{
		System:   "mepipe",
		Model:    m,
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 4},
		Training: v1.TrainingSpec{GlobalBatch: 32},
	})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return doc
}

// seedTag names a seed's documents.
func seedTag(seed int64) string {
	return fmt.Sprintf("%08x", rand.New(rand.NewSource(seed)).Uint32())
}

// planCacheSize bounds the server's response cache: plan-cold starts
// evicting after 64 ops, so its memory stays flat however long it runs.
const planCacheSize = 64

// served is one /v1/search reply.
type served struct {
	status int
	cache  string
	body   []byte
}

// search posts a search document to the handler in process (no sockets)
// and times the ServeHTTP call alone.
func search(h http.Handler, doc []byte) (served, time.Duration) {
	req, w := searchRequest(doc)
	start := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(start)
	return reply(w), d
}

func searchRequest(doc []byte) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(doc)), httptest.NewRecorder()
}

func reply(w *httptest.ResponseRecorder) served {
	return served{w.Code, w.Header().Get("X-Mepipe-Cache"), w.Body.Bytes()}
}

// respStats counts the served replies' sizes and cache hits.
type respStats struct {
	ops, hits int
	bytes     int
}

func (r *respStats) add(s served) {
	r.ops++
	r.bytes += len(s.body)
	if s.cache == "hit" {
		r.hits++
	}
}

func (r *respStats) metrics(out map[string]float64) {
	out["serve.resp_kb"] = float64(r.bytes) / float64(r.ops) / 1024
	out["serve.hit_ratio"] = float64(r.hits) / float64(r.ops)
}

// planCold sends a new document with every op.
type planCold struct {
	h    http.Handler
	tag  string
	plan *v1.Plan
	// ref is the best candidate of a direct strategy search of the point,
	// and refEvaluated its evaluated count: what every reply must carry.
	ref          v1.Candidate
	refEvaluated int
	// last is the latest op's index and reply, which the replay of that
	// op must reproduce byte for byte.
	last     int
	lastBody []byte
	resp     respStats

	// Counters over traced replays.
	grid, feasible, evaluated, opsGenerated int
}

func newPlanCold(seed int64) (instance, error) {
	p := &planCold{h: serve.New(serve.Options{CacheSize: planCacheSize}).Handler(), tag: seedTag(seed)}
	req, err := v1.DecodePlanRequest(bytes.NewReader(planDoc(p.tag, 0)))
	if err != nil {
		return nil, err
	}
	if p.plan, err = req.Compile(); err != nil {
		return nil, err
	}
	res, err := p.searchDirect()
	if err != nil {
		return nil, err
	}
	best := res.Best()
	if best == nil {
		return nil, fmt.Errorf("no feasible candidate at the planning point")
	}
	p.ref = v1.CandidateFrom(best, p.plan.Model, p.plan.Cluster, p.plan.Training)
	p.refEvaluated = res.Evaluated
	return p, nil
}

func (p *planCold) searchDirect() (*strategy.SearchResult, error) {
	pl := p.plan
	return strategy.SearchContext(context.Background(), pl.System, pl.Model, pl.Cluster, pl.Training, pl.Space)
}

func (p *planCold) op(i int) (time.Duration, error) {
	s, d := search(p.h, planDoc(p.tag, i))
	p.last, p.lastBody = i, s.body
	p.resp.add(s)
	return d, p.check(s)
}

// check: a certified cache miss whose best candidate equals the reference.
func (p *planCold) check(s served) error {
	if s.status != http.StatusOK || s.cache != "miss" {
		return fmt.Errorf("plan-cold: status %d, cache %q; want 200, miss", s.status, s.cache)
	}
	var resp v1.SearchResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("plan-cold: decoding reply: %w", err)
	}
	if !resp.Certified || resp.Best == nil || *resp.Best != p.ref || resp.Evaluated != p.refEvaluated {
		return fmt.Errorf("plan-cold: certified %v, evaluated %d, best %+v; want certified, %d, %+v",
			resp.Certified, resp.Evaluated, resp.Best, p.refEvaluated, p.ref)
	}
	return nil
}

// direct times the strategy search behind the handler, called directly on
// the compiled point.
func (p *planCold) direct(int) (time.Duration, error) {
	start := time.Now()
	res, err := p.searchDirect()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if best := res.Best(); best == nil || v1.CandidateFrom(best, p.plan.Model, p.plan.Cluster, p.plan.Training) != p.ref {
		return d, fmt.Errorf("plan-cold: direct search's best candidate differs from the reference")
	}
	return d, nil
}

// replay answers op i's document the way the server does, one layer call
// at a time and on one goroutine, and checks the encoded reply equals the
// server's.
func (p *planCold) replay(i int, tr *tracer) error {
	doc := planDoc(p.tag, i)
	var body []byte
	err := tr.request(func() error {
		plan, key, err := decodePlan(tr, doc)
		if err != nil {
			return err
		}
		res, err := p.searchLayers(tr, plan)
		if err != nil {
			return err
		}
		return tr.span("v1.encode", func() (err error) {
			body, err = encodeSearch(key, plan, res)
			return err
		})
	})
	if err != nil {
		return err
	}
	if i == p.last && !bytes.Equal(body, p.lastBody) {
		return fmt.Errorf("plan-cold: replayed reply differs from the server's")
	}
	return nil
}

// decodePlan runs the request half of the v1 layer: strict decode,
// normalize and compile, and the cache key.
func decodePlan(tr *tracer, doc []byte) (plan *v1.Plan, key string, err error) {
	var req *v1.PlanRequest
	if err = tr.span("v1.decode", func() (err error) {
		req, err = v1.DecodePlanRequest(bytes.NewReader(doc))
		return err
	}); err != nil {
		return
	}
	if err = tr.span("v1.normalize", func() (err error) {
		plan, err = req.Compile()
		return err
	}); err != nil {
		return
	}
	err = tr.span("v1.key", func() (err error) {
		key, err = req.Key("search")
		return err
	})
	return
}

// searchLayers is the MEPipe grid search of strategy.SearchContext, run
// sequentially through the layers' public functions: enumerate the grid,
// then per candidate build the plan (mesh, memory plan, cost model),
// generate, certify and simulate the schedule, and rank.
func (p *planCold) searchLayers(tr *tracer, pl *v1.Plan) (*strategy.SearchResult, error) {
	res := &strategy.SearchResult{Sys: pl.System}
	grid := mepipeGrid(pl.Cluster.GPUs(), pl.Training, pl.Space)
	if tr != nil {
		p.grid += len(grid)
	}
	for _, par := range grid {
		ev, err := p.evaluate(tr, pl, par)
		if err != nil {
			if errors.Is(err, errs.ErrIncompatible) {
				continue
			}
			return nil, err
		}
		res.Evaluated++
		res.Candidates = append(res.Candidates, ev)
		if tr != nil {
			p.evaluated++
			if !ev.OOM {
				p.feasible++
			}
		}
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool { return lessEval(res.Candidates[i], res.Candidates[j]) })
	return res, nil
}

// mepipeGrid enumerates the MEPipe candidates of the search space in the
// search's grid order.
func mepipeGrid(gpus int, tr config.Training, sp strategy.SearchSpace) []config.Parallel {
	var out []config.Parallel
	for _, pp := range sp.PP {
		if gpus%pp != 0 {
			continue
		}
		for _, spp := range sp.SPP {
			for _, vp := range []int{1, 2} {
				par := config.Parallel{PP: pp, DP: gpus / pp, CP: 1, SPP: spp, VP: vp}
				if par.Validate() != nil || par.Devices() != gpus || par.DP < sp.MinDP || tr.GlobalBatch%par.DP != 0 {
					continue
				}
				out = append(out, par)
			}
		}
	}
	return out
}

// evaluate evaluates one MEPipe candidate the way strategy.EvaluateContext
// does, with one span per layer.
func (p *planCold) evaluate(tr *tracer, pl *v1.Plan, par config.Parallel) (*strategy.Eval, error) {
	ev := &strategy.Eval{Sys: pl.System, Par: par}
	var mp *memplan.Plan
	var costs *perf.Costs
	if err := tr.span("plan.build", func() error {
		mesh, err := cluster.NewMesh(pl.Cluster, par)
		if err != nil {
			return err
		}
		if ev.N, err = pl.Training.MicroBatches(par); err != nil {
			return err
		}
		if mp, err = memplan.NewWithReserve(pl.Model, mesh, 0); err != nil {
			return err
		}
		ev.Budget = slices.Min(mp.ActBudget)
		if !mp.Feasible() {
			return nil
		}
		costs, err = perf.New(pl.Model, mesh)
		return err
	}); err != nil {
		return nil, err
	}
	if !mp.Feasible() {
		ev.OOM, ev.OOMWhy = true, "static memory exceeds device capacity"
		return ev, nil
	}
	var s *sched.Schedule
	var f int
	if err := tr.span("sched.generate", func() (err error) {
		fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
		grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})
		if f, err = memplan.ChooseF(par, fam, grad, mp.ActBudget[0]); err != nil {
			return fmt.Errorf("%v: %w", err, errs.ErrOOM)
		}
		s, err = sched.Generate(sched.SVPPOptions{
			P: par.PP, V: par.VP, S: par.SPP, N: ev.N, F: f,
			Reschedule: true, Split: true, FineGrainedW: costs.WPieces(), Est: costs,
		}.GenOpts())
		return err
	}); err != nil {
		ev.OOM, ev.OOMWhy = true, err.Error()
		return ev, nil
	}
	if tr != nil {
		for _, ops := range s.Stages {
			p.opsGenerated += len(ops)
		}
	}
	if err := tr.span("verify.certify", func() error {
		_, err := verify.Certify(s, verify.Options{})
		return err
	}); err != nil {
		return nil, fmt.Errorf("plan-cold: %v schedule rejected: %w", par, err)
	}
	var res *sim.Result
	if err := tr.span("sim.evaluate", func() (err error) {
		res, err = sim.Evaluate(context.Background(), sim.Options{
			Sched: s, Costs: costs, ActBudget: mp.ActBudget, DynamicW: true,
			TailTime: costs.TailTime, AssumeValid: true,
		})
		return err
	}); err != nil {
		return nil, fmt.Errorf("plan-cold: simulating %v: %w", par, err)
	}
	ev.Result, ev.IterTime, ev.Bubble, ev.PeakAct, ev.F = res, res.IterTime, res.BubbleRatio, res.PeakAct, f
	if res.OOM {
		ev.OOM, ev.OOMWhy = true, fmt.Sprintf("activations exceed budget on stage %d", res.OOMStage)
	}
	return ev, nil
}

// lessEval is the search's candidate order: feasible first, then faster,
// then a fixed tie-break on the strategy's shape.
func lessEval(a, b *strategy.Eval) bool {
	if a.OOM != b.OOM {
		return !a.OOM
	}
	if !a.OOM && a.IterTime != b.IterTime {
		return a.IterTime < b.IterTime
	}
	x, y := a.Par, b.Par
	for _, d := range [][2]int{{x.PP, y.PP}, {x.VP, y.VP}, {x.SPP, y.SPP}, {x.CP, y.CP}, {x.DP, y.DP}, {int(x.Recompute), int(y.Recompute)}} {
		if d[0] != d[1] {
			return d[0] < d[1]
		}
	}
	return a.N < b.N
}

// encodeSearch builds and encodes the /v1/search reply for a result.
func encodeSearch(key string, pl *v1.Plan, res *strategy.SearchResult) ([]byte, error) {
	resp := &v1.SearchResponse{
		API: v1.Version, Key: key, System: v1.SystemName(pl.System),
		Certified: true, Found: res.Found(), Evaluated: res.Evaluated, Pruned: res.Pruned,
		Candidates: make([]v1.Candidate, 0, len(res.Candidates)),
	}
	for _, ev := range res.Candidates {
		resp.Candidates = append(resp.Candidates, v1.CandidateFrom(ev, pl.Model, pl.Cluster, pl.Training))
	}
	if best := res.Best(); best != nil {
		c := v1.CandidateFrom(best, pl.Model, pl.Cluster, pl.Training)
		resp.Best = &c
	}
	return json.Marshal(resp)
}

func (p *planCold) layers(tr *tracer, t *traceTimes) (map[string]float64, error) {
	out := map[string]float64{
		"v1.decode_us":              us(tr.selfPerReq("v1.decode")),
		"v1.normalize_us":           us(tr.selfPerReq("v1.normalize")),
		"v1.key_us":                 us(tr.selfPerReq("v1.key")),
		"v1.encode_us":              us(tr.selfPerReq("v1.encode")),
		"plan.build_ms":             ms(tr.selfPerReq("plan.build")),
		"sched.generate_ms":         ms(tr.selfPerReq("sched.generate")),
		"verify.certify_ms":         ms(tr.selfPerReq("verify.certify")),
		"sim.evaluate_ms":           ms(tr.selfPerReq("sim.evaluate")),
		"sched.ops_generated":       float64(p.opsGenerated) / float64(tr.requests),
		"strategy.grid_points":      float64(p.grid) / float64(tr.requests),
		"strategy.feasible_ratio":   float64(p.feasible) / float64(p.evaluated),
		"serve.overhead_ms":         pairedMedian(t.op, t.direct, func(a, b float64) float64 { return (a - b) / 1e6 }),
		"strategy.parallel_speedup": pairedMedian(t.replay, t.direct, func(a, b float64) float64 { return a / b }),
	}
	p.resp.metrics(out)
	return out, nil
}

// planHotDocs is the number of cached documents plan-hot cycles through.
const planHotDocs = 16

// planHot serves every op from the cache.
type planHot struct {
	h      http.Handler
	docs   [][]byte
	bodies [][]byte // each document's reply when it missed
	order  []int
	resp   respStats
}

func newPlanHot(seed int64) (instance, error) {
	p := &planHot{
		h:     serve.New(serve.Options{CacheSize: planCacheSize}).Handler(),
		order: rand.New(rand.NewSource(seed)).Perm(planHotDocs),
	}
	tag := seedTag(seed)
	for j := 0; j < planHotDocs; j++ {
		doc := planDoc(tag, j)
		s, _ := search(p.h, doc)
		if s.status != http.StatusOK || s.cache != "miss" {
			return nil, fmt.Errorf("plan-hot: filling the cache: status %d, cache %q", s.status, s.cache)
		}
		p.docs = append(p.docs, doc)
		p.bodies = append(p.bodies, s.body)
	}
	return p, nil
}

func (p *planHot) doc(i int) int { return p.order[i%planHotDocs] }

func (p *planHot) op(i int) (time.Duration, error) {
	j := p.doc(i)
	s, d := search(p.h, p.docs[j])
	p.resp.add(s)
	return d, p.check(j, s)
}

// check: a hit whose body is byte-equal to the body its miss returned.
func (p *planHot) check(j int, s served) error {
	if s.status != http.StatusOK || s.cache != "hit" {
		return fmt.Errorf("plan-hot: status %d, cache %q; want 200, hit", s.status, s.cache)
	}
	if !bytes.Equal(s.body, p.bodies[j]) {
		return fmt.Errorf("plan-hot: document %d's hit differs from its miss", j)
	}
	return nil
}

// replay runs the v1 request layer on its own, then the whole handler on
// the hit.
func (p *planHot) replay(i int, tr *tracer) error {
	j := p.doc(i)
	req, w := searchRequest(p.docs[j])
	if err := tr.request(func() error {
		if _, _, err := decodePlan(tr, p.docs[j]); err != nil {
			return err
		}
		return tr.span("serve.hit", func() error {
			p.h.ServeHTTP(w, req)
			return nil
		})
	}); err != nil {
		return err
	}
	return p.check(j, reply(w))
}

func (p *planHot) layers(tr *tracer, _ *traceTimes) (map[string]float64, error) {
	out := map[string]float64{
		"v1.decode_us":    us(tr.selfPerReq("v1.decode")),
		"v1.normalize_us": us(tr.selfPerReq("v1.normalize")),
		"v1.key_us":       us(tr.selfPerReq("v1.key")),
		"serve.hit_us":    us(tr.selfPerReq("serve.hit")),
	}
	p.resp.metrics(out)
	return out, nil
}
