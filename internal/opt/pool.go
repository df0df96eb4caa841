package opt

import (
	"sync"
	"sync/atomic"
)

// forEachWorker runs fn over indices 0..n-1 using at most `workers`
// goroutines — the caller's, as worker 0, plus workers-1 spawned ones —
// and joins them all before returning. Each invocation also receives the
// stable index w of the worker running it, so callers can give every
// worker private scratch (the annealer binds one incremental simulator
// session and one certifier fork per worker). It is the package's only
// goroutine launch point (allowlisted for the gospawn analyzer): workers
// pull indices from an atomic cursor, run pure evaluations, and cannot
// outlive the call — there is no channel, no shared mutable search
// state, and no panic path that leaks a goroutine past the WaitGroup.
func forEachWorker(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait() // joins the spawned workers even if worker 0 panics
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
}
