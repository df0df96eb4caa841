package sim

import "mepipe/internal/sched"

// Lower bounds on the iteration makespan, independent of op ordering. They
// quantify how much a *better schedule* could still buy: the simulated
// makespan can never beat max(CriticalPath, BusiestStage), so the gap
// between the two is the true remaining bubble.

// CriticalPathBound returns the longest dependency chain through the
// schedule's op DAG (durations plus cross-stage communication), ignoring
// resource (stage) contention. No executor — however cleverly ordered — can
// finish faster. The chain is solved in a Topo.Sort order of the
// dependency edges alone: no op has a program-order successor.
func CriticalPathBound(s *sched.Schedule, costs Costs) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	t := s.DepTable()
	ix := t.Ix
	n := ix.Total()
	next := make([]int32, n)
	for i := range next {
		next[i] = -1
	}
	var o sched.Topo
	o.Sort(t, next, make([]int32, n)) // ranks all n: Validate proved a supergraph acyclic
	finish := make([]float64, n)
	best := 0.0
	for _, u := range o.Order {
		k, op := ix.At(u)
		ready := 0.0
		for _, d := range t.ID[t.Off[u]:t.Off[u+1]] {
			r := finish[d]
			if dk, dop := ix.At(d); dk != k {
				r += costs.CommTime(dk, k, dop)
			}
			ready = max(ready, r)
		}
		finish[u] = ready + costs.OpTime(k, op)
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
