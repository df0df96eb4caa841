// Package memplan implements the paper's memory model (§4.5): the static /
// temporary / activation decomposition of a worker's memory, the per-stage
// activation budget under a device's capacity, and the selection of the
// SVPP scheduling-method variant (the f knob of §4.2) that fits the budget
// with the lowest bubble ratio.
package memplan

import (
	"fmt"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/model"
	"mepipe/internal/sched"
)

// AllocatorReserve approximates the CUDA caching-allocator headroom real
// frameworks lose to fragmentation and transient buffers (§7.2 observes the
// PyTorch allocator reserving beyond the model's accounting; this constant
// stands in for that gap).
const AllocatorReserve = int64(1) << 30 // 1 GiB

// Plan is the memory budget of one configuration.
type Plan struct {
	Capacity int64 // device memory
	// Static[stage]: FP16 parameters + gradients of the stage plus the
	// worker's ZeRO optimizer shard.
	Static []int64
	// Temp[stage]: transient workspace (loss logits on the last stage,
	// communication buffers everywhere).
	Temp []int64
	// ActBudget[stage] = Capacity − Static − Temp − AllocatorReserve,
	// floored at zero.
	ActBudget []int64
}

// SplitReserve is the extra allocator headroom charged to zero-bubble
// baselines (ZB, ZBV): deferring weight gradients keeps per-GEMM inputs and
// output gradients alive as many small tensors, and §7.2 reports the
// PyTorch caching allocator reserving enough extra memory to push ZB out of
// configurations that fit on paper. MEPipe's engine drains weight gradients
// under memory pressure (§5) and is charged only the base reserve.
const SplitReserve = int64(3) << 29 // 1.5 GiB

// New computes the plan for one model/strategy on a cluster, charging
// `extraReserve` additional allocator headroom (see SplitReserve).
func New(m config.Model, mesh cluster.Mesh) (*Plan, error) {
	return NewWithReserve(m, mesh, 0)
}

// NewWithReserve is New with extra allocator headroom.
func NewWithReserve(m config.Model, mesh cluster.Mesh, extraReserve int64) (*Plan, error) {
	par := mesh.Par
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Capacity: mesh.C.GPU.MemoryBytes}
	// One array backs the three per-stage tables, each view capped at
	// its own end.
	pp := par.PP
	buf := make([]int64, 3*pp)
	p.Static, p.Temp, p.ActBudget = buf[:0:pp], buf[pp:pp:2*pp], buf[2*pp:2*pp:3*pp]
	stageParams := model.StageParams(m, par.PP)
	devices := int64(par.Devices())
	shard := (model.TotalParams(m) + devices - 1) / devices
	callTokens := m.SeqLen / (par.SPP * par.CP)
	tp := int64(par.TPSize())
	for k := 0; k < par.PP; k++ {
		// FP16 parameters + gradients per stage (sharded across the
		// tensor-parallel group), plus the worker's cluster-wide ZeRO
		// optimizer shard (12 bytes/param over all devices — §7.2,
		// §7.4).
		static := stageParams[k]/tp*model.BytesPerParamStatic + shard*model.BytesPerParamOptimizer
		temp := int64(4) * int64(callTokens) * int64(m.HiddenSize) * model.BytesFP16
		if k == par.PP-1 {
			// Cross-entropy holds FP32 logits over the (vocab-
			// parallel under TP) vocabulary.
			temp += int64(callTokens) * int64(m.VocabSize) * model.BytesFP32 / tp
		}
		budget := p.Capacity - static - temp - AllocatorReserve - extraReserve
		if budget < 0 {
			budget = 0
		}
		p.Static = append(p.Static, static)
		p.Temp = append(p.Temp, temp)
		p.ActBudget = append(p.ActBudget, budget)
	}
	return p, nil
}

// Feasible reports whether any activations fit at all (static memory alone
// may exceed the device, e.g. Llama 34B at PP=4 on 24 GB cards, §7.4).
func (p *Plan) Feasible() bool {
	for _, b := range p.ActBudget {
		if b <= 0 {
			return false
		}
	}
	return true
}

// ChooseF selects the SVPP variant: the largest f (forwards in flight on
// stage 0 before the first backward) whose activation retention fits stage
// 0's budget, clamped to [v·s, v·max(p,s)+min(p,s)−1]. familyBytes is the
// retention of one slice-chunk forward on stage 0 (perf.Costs.ActBytes);
// gradBytes is the extra retention between a split backward and its weight
// gradients (perf.Costs.GradBytes) — two families' worth is reserved so the
// engine always has room to start a backward before any weight-gradient
// work is drainable (pass 0 for fused-backward schedules).
func ChooseF(par config.Parallel, familyBytes, gradBytes, budget int64) (int, error) {
	if familyBytes <= 0 {
		return 0, fmt.Errorf("memplan: non-positive family footprint %d: %w", familyBytes, errs.ErrIncompatible)
	}
	usable := budget - 2*gradBytes
	lo := par.VP * par.SPP
	hi := sched.DefaultF(par.PP, par.VP, par.SPP)
	f := int(usable / familyBytes)
	if f < lo {
		return 0, fmt.Errorf("memplan: budget %d fits only %d forwards, below the v·s=%d minimum (§4.2): %w", budget, f, lo, errs.ErrOOM)
	}
	if f > hi {
		f = hi
	}
	return f, nil
}
