//go:build race

package opt

// raceEnabled reports a -race build, where sync.Pool drops pooled items
// at random and allocation counts measure nothing.
const raceEnabled = true
