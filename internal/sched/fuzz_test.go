package sched_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// FuzzLoad hardens the schedule decoder: arbitrary bytes must never
// panic, and Certify of anything Load returns either certifies it or
// returns a typed counterexample. Shapes with more ops than the input
// could list are skipped, as the server refuses them: certification
// sizes its tables by the shape.
func FuzzLoad(f *testing.F) {
	// Seed with a real schedule and some near-misses.
	s, err := sched.MEPipe(2, 1, 2, 2, 0, 2, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(buf.String()))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"placement":"round-robin","p":1,"v":1,"s":1,"n":1,"stages":[[]]}`))
	f.Add([]byte(strings.Replace(buf.String(), `"n":2`, `"n":99`, 1)))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := sched.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n, _ := got.UniverseOps(); n > len(data) {
			return
		}
		_, err = verify.Certify(got, verify.Options{})
		var (
			shape      *verify.ShapeError
			incomplete *verify.IncompleteError
			missing    *verify.MissingDepError
			cycle      *verify.CycleError
		)
		if err != nil && !errors.As(err, &shape) && !errors.As(err, &incomplete) &&
			!errors.As(err, &missing) && !errors.As(err, &cycle) {
			t.Fatalf("Certify of a loaded schedule returned an untyped error: %v", err)
		}
	})
}

// FuzzGenerateShapes drives the generator across arbitrary small shapes and
// cap functions: it must either error cleanly or emit a schedule that
// passes static certification (deadlock-free, complete).
func FuzzGenerateShapes(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(2), uint8(3), uint8(5), true, true, uint8(3))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), false, false, uint8(0))
	f.Add(uint8(6), uint8(3), uint8(4), uint8(6), uint8(2), true, false, uint8(0))
	f.Fuzz(func(t *testing.T, p, v, s, n, fcap uint8, split, resched bool, pieces uint8) {
		opt := sched.GenOptions{
			Name: "fuzz",
			P:    int(p%6) + 1, V: int(v%3) + 1, S: int(s%4) + 1, N: int(n%5) + 1,
			SplitBW:    split,
			Reschedule: resched,
		}
		if split {
			opt.WPieces = int(pieces % 5)
		}
		cap := int(fcap)
		opt.InFlightCap = func(k int) int { return cap - k }
		opt.Place = sched.RoundRobin{P: opt.P, V: opt.V}
		sch, err := sched.Generate(opt)
		if err != nil {
			t.Fatalf("generator failed on p=%d v=%d s=%d n=%d cap=%d: %v", opt.P, opt.V, opt.S, opt.N, cap, err)
		}
		if _, err := verify.Certify(sch, verify.Options{}); err != nil {
			t.Fatalf("generator emitted an uncertifiable schedule on p=%d v=%d s=%d n=%d cap=%d: %v",
				opt.P, opt.V, opt.S, opt.N, cap, err)
		}
	})
}
