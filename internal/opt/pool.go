package opt

import (
	"sync"
	"sync/atomic"
)

// fanOutCutoff is the round work, in schedule ops × proposals, below which
// fanning a round out costs more than it saves and the calling goroutine
// evaluates it alone. A proposal's evaluation cost grows with the
// schedule, while waking and joining the workers costs a fixed few
// microseconds per round, and the coordinator's proposals and commits stay
// serial either way. Two workers break even with one at about 3,456 ops
// at 4 proposals (docs/OPTIMIZER.md has the measurement).
const fanOutCutoff = 13824

// fanOut returns how many goroutines evaluate each round of a run over a
// schedule of ops ops: one (the caller) when a round's work is below
// fanOutCutoff, else min(workers, proposals, procs).
func fanOut(ops, proposals, workers, procs int) int {
	if ops*proposals < fanOutCutoff {
		return 1
	}
	return min(workers, proposals, procs)
}

// group is one run's evaluation workers. With one worker it is the caller
// alone; with more, it is that many goroutines started once by startGroup
// and fed one round at a time, while the caller waits. The caller does not
// take a share: a woken worker is queued to run next on the waking
// goroutine's processor, so a caller that kept evaluating would hold it
// off and take most of the round itself, while a caller that parks hands
// its processor to that worker at once. The group is the package's only
// goroutine launch point (allowlisted for the gospawn analyzer). Workers
// pull a round's indices from an atomic cursor and run pure evaluations;
// there is no shared mutable search state, and stop joins every worker,
// so none outlives the run.
type group struct {
	fn   func(i int)     // evaluates item i
	n    int             // items in the current round
	next atomic.Int64    // the current round's cursor
	wake []chan struct{} // one per goroutine; closed by stop
	busy sync.WaitGroup  // goroutines still in the current round
	live sync.WaitGroup  // goroutines not yet exited
}

// startGroup readies workers workers to evaluate fn, starting goroutines
// only when there are at least two. Items carry their own scratch (the
// annealer gives each proposal slot one simulator overlay), so fn needs
// no worker identity.
func startGroup(workers int, fn func(i int)) *group {
	g := &group{fn: fn}
	if workers < 2 {
		return g
	}
	g.wake = make([]chan struct{}, workers)
	for w := range g.wake {
		ch := make(chan struct{}, 1)
		g.wake[w] = ch
		g.live.Add(1)
		go func() {
			defer g.live.Done()
			for range ch {
				g.drain()
				g.busy.Done()
			}
		}()
	}
	return g
}

// round evaluates items 0..n-1 across the group and returns once all are
// done.
func (g *group) round(n int) {
	g.n = n
	g.next.Store(0)
	if len(g.wake) == 0 {
		g.drain()
		return
	}
	g.busy.Add(len(g.wake))
	for _, ch := range g.wake {
		ch <- struct{}{}
	}
	g.busy.Wait()
}

// drain evaluates the current round's unclaimed items.
func (g *group) drain() {
	for {
		i := int(g.next.Add(1)) - 1
		if i >= g.n {
			return
		}
		g.fn(i)
	}
}

// stop ends the group's goroutines and waits for them to exit.
func (g *group) stop() {
	for _, ch := range g.wake {
		close(ch)
	}
	g.live.Wait()
}
