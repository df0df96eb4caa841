package sim

import "mepipe/internal/sched"

// Lower bounds on the iteration makespan, independent of op ordering. They
// quantify how much a *better schedule* could still buy: the simulated
// makespan can never beat max(CriticalPath, BusiestStage), so the gap
// between the two is the true remaining bubble.

// CriticalPathBound returns the longest dependency chain through the
// schedule's op DAG (durations plus cross-stage communication), ignoring
// resource (stage) contention. No executor — however cleverly ordered — can
// finish faster. A pooled session binds and sweeps s, the gate Run runs,
// and the chain is solved over its durations and delays in the sweep's
// order, which also orders the dependency edges alone.
func CriticalPathBound(s *sched.Schedule, costs Costs) (float64, error) {
	se := sessionPool.Get().(*Session)
	defer putSession(se)
	if err := se.init(Options{Sched: s, Costs: costs}); err != nil {
		return 0, err
	}
	if err := se.sweep(); err != nil {
		return 0, err
	}
	finish := make([]float64, se.n)
	best := 0.0
	for _, u := range se.topo.Order {
		ready := 0.0
		for e := se.depOff[u]; e < se.depOff[u+1]; e++ {
			ready = max(ready, finish[se.depID[e]]+se.depComm[e])
		}
		finish[u] = ready + se.dur[u]
		best = max(best, finish[u])
	}
	return best, nil
}

// BusiestStageBound returns the largest per-stage total compute — the
// resource floor no schedule can beat.
func BusiestStageBound(s *sched.Schedule, costs Costs) float64 {
	best := 0.0
	for k, ops := range s.Stages {
		var sum float64
		for _, op := range ops {
			sum += costs.OpTime(k, op)
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// MakespanBound returns max(CriticalPathBound, BusiestStageBound).
func MakespanBound(s *sched.Schedule, costs Costs) (float64, error) {
	cp, err := CriticalPathBound(s, costs)
	if err != nil {
		return 0, err
	}
	if b := BusiestStageBound(s, costs); b > cp {
		return b, nil
	}
	return cp, nil
}
