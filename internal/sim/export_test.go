package sim

import "mepipe/internal/sched"

// RunRef exposes the reference runner (oracle_test.go) to the external
// sim_test package.
var RunRef = runRef

// EvalDense evaluates s the way a session's first Eval does — the dense
// Kahn sweep over every op — instead of re-solving from the moved ranks.
func (se *Session) EvalDense(s *sched.Schedule) (*Result, error) {
	se.valid = false
	return se.Eval(s)
}
