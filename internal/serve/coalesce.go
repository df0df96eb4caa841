package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mepipe/internal/errs"
)

// coalescer deduplicates identical in-flight computations
// (singleflight-style): concurrent callers with the same key share one
// underlying run. Unlike the classic singleflight, the shared computation
// is cancellation-aware — it runs under its own context that is cancelled
// only when *every* waiter has abandoned it, so one client disconnecting
// never kills a result other clients are still waiting for, while a search
// nobody wants any more stops immediately and leaves the group clean.
type coalescer struct {
	mu    sync.Mutex
	base  context.Context // lifetime of the server; parents every run
	calls map[string]*call
}

type call struct {
	done    chan struct{} // closed when the computation finished
	val     any
	err     error
	waiters int
	cancel  context.CancelFunc
}

func newCoalescer(base context.Context) *coalescer {
	if base == nil {
		base = context.Background()
	}
	return &coalescer{base: base, calls: make(map[string]*call)}
}

// Do runs fn once per key among concurrent callers and hands every caller
// the same (value, error). shared is false for the caller that started
// the computation and true for the callers that joined it. If ctx is done
// before the shared computation finishes, the caller gets an error
// wrapping errs.ErrCancelled; when the last waiter leaves, the
// computation's context is cancelled and the key is released so a later
// identical request starts fresh.
func (g *coalescer) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, c, true)
	}
	runCtx, cancel := context.WithCancel(g.base)
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	go func() {
		v, err := recovered(func() (any, error) { return fn(runCtx) })
		g.mu.Lock()
		c.val, c.err = v, err
		// Release the key (unless a later call already replaced a
		// fully-abandoned run) so the next identical request recomputes.
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	g.mu.Unlock()
	return g.wait(ctx, key, c, false)
}

// errPanicked marks a computation that panicked.
var errPanicked = errors.New("serve: computation panicked")

// recovered calls fn, turning a panic into an error: the computation fails
// (a 500 internal reply to its waiters) instead of the process, since
// net/http recovers panics only on a handler's own goroutine.
func recovered(fn func() (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	return fn()
}

// wait blocks until the call completes or ctx is done.
func (g *coalescer) wait(ctx context.Context, key string, c *call, shared bool) (any, bool, error) {
	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Nobody is listening: stop the computation and free the
			// key immediately so the group cannot wedge on a run that
			// is still unwinding.
			if g.calls[key] == c {
				delete(g.calls, key)
			}
			c.cancel()
		}
		g.mu.Unlock()
		return nil, shared, fmt.Errorf("serve: request abandoned before the result was ready: %w", errs.ErrCancelled)
	}
}

// Inflight returns the number of distinct keys currently being computed.
func (g *coalescer) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
