package pipeline

import "sync"

// spawn is the package's only goroutine launch point: every goroutine the
// runtime creates goes through it, registered with the caller's WaitGroup,
// so every one is joined. Concentrating the go statements here is what
// lets mepipe-lint's gospawn rule forbid raw `go func` anywhere else in
// the package — so every new concurrency path is forced past this
// chokepoint and its review: a spawned body must unwind through the
// runner's failure latch (see Runner.fail), so no code path can silently
// leak a goroutine that outlives its run.
func spawn(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}
