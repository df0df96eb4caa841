package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPresetsValid exercises every preset constructor across a grid of
// shapes; Generate self-validates, so construction succeeding is the
// assertion.
func TestPresetsValid(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			if _, err := GPipe(p, n, nil); err != nil {
				t.Errorf("GPipe(%d,%d): %v", p, n, err)
			}
			if _, err := DAPPLE(p, n, nil); err != nil {
				t.Errorf("DAPPLE(%d,%d): %v", p, n, err)
			}
			if _, err := ZB1P(p, n, nil); err != nil {
				t.Errorf("ZB1P(%d,%d): %v", p, n, err)
			}
			for _, v := range []int{2, 3} {
				if _, err := VPP(p, v, n, nil); err != nil {
					t.Errorf("VPP(%d,%d,%d): %v", p, v, n, err)
				}
			}
			if _, err := Hanayo(p, n, nil); err != nil {
				t.Errorf("Hanayo(%d,%d): %v", p, n, err)
			}
			if _, err := ZBV(p, n, nil); err != nil {
				t.Errorf("ZBV(%d,%d): %v", p, n, err)
			}
			for _, s := range []int{2, 4} {
				if _, err := TeraPipe(p, s, n, nil); err != nil {
					t.Errorf("TeraPipe(%d,%d,%d): %v", p, s, n, err)
				}
			}
		}
	}
}

// TestSVPPPropertyValid is the core property test: for random shapes and
// memory knobs, SVPP generation must always succeed and produce a complete,
// deadlock-free schedule (Generate validates internally) in every mode
// combination.
func TestSVPPPropertyValid(t *testing.T) {
	type shape struct {
		P, V, S, N, F uint8
		Resched       bool
		Split         bool
		Pieces        uint8
	}
	check := func(sh shape) bool {
		p := int(sh.P)%6 + 1
		v := int(sh.V)%3 + 1
		s := int(sh.S)%4 + 1
		n := int(sh.N)%6 + 1
		f := int(sh.F) % (v*s*p + 2) // may be under the v·s minimum: must clamp
		pieces := 0
		if sh.Split {
			pieces = int(sh.Pieces)%4 + 1
		}
		sch, err := SVPP(SVPPOptions{
			P: p, V: v, S: s, N: n, F: f,
			Reschedule: sh.Resched, Split: sh.Split, FineGrainedW: pieces,
		})
		if err != nil {
			t.Logf("SVPP(p=%d v=%d s=%d n=%d f=%d split=%v pieces=%d): %v",
				p, v, s, n, f, sh.Split, pieces, err)
			return false
		}
		return sch.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestGenerateDurationRobust: schedule generation must stay valid under
// skewed cost estimates (attention imbalance, cheap forwards, heavy
// backwards).
func TestGenerateDurationRobust(t *testing.T) {
	ests := []UniformEst{
		{F: 1, BFused: 1, BAct: 1, W: 1, WPiece: 1},
		{F: 1, BFused: 3, BAct: 2, W: 0.5, WPiece: 0.1, Comm: 0.3},
		{F: 0.25, BFused: 2, BAct: 1, W: 1, WPiece: 0.25, Comm: 0.05},
	}
	for i, est := range ests {
		if _, err := SVPP(SVPPOptions{P: 4, V: 2, S: 2, N: 4, Est: est}); err != nil {
			t.Errorf("est %d fused: %v", i, err)
		}
		if _, err := SVPP(SVPPOptions{P: 4, V: 2, S: 2, N: 4, Est: est, Split: true, FineGrainedW: 3}); err != nil {
			t.Errorf("est %d split: %v", i, err)
		}
	}
}

// skewEst gives each slice a different forward cost, mimicking causal
// attention imbalance (§5's motivating scenario: slice 0 at 75% of slice 1).
type skewEst struct{}

func (skewEst) OpTime(stage int, op Op) float64 {
	base := 0.75 + 0.25*float64(op.Slice)
	switch op.Kind {
	case F:
		return base
	case B:
		return 2 * base
	case BAct:
		return base
	case W, WPiece:
		return 0.75
	}
	return 0
}
func (skewEst) CommTime(from, to int, op Op) float64 { return 0.02 }

func TestGenerateWithImbalancedSlices(t *testing.T) {
	s, err := SVPP(SVPPOptions{P: 4, V: 1, S: 2, N: 4, Est: skewEst{}, Split: true, FineGrainedW: 4, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTightCapsClampedNotDeadlocked: caps below the v·s minimum must be
// raised, never deadlock.
func TestTightCapsClampedNotDeadlocked(t *testing.T) {
	for f := 0; f <= 4; f++ {
		if _, err := SVPP(SVPPOptions{P: 4, V: 2, S: 2, N: 3, F: f}); err != nil {
			t.Errorf("f=%d: %v", f, err)
		}
	}
}

// TestWDeferCapForcesPromptW: with a zero deferral budget every BAct must be
// followed immediately by its weight-gradient work.
func TestWDeferCapForcesPromptW(t *testing.T) {
	s, err := SVPP(SVPPOptions{
		P: 2, V: 1, S: 1, N: 4, Split: true,
		WDeferCap: func(int) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, ops := range s.Stages {
		for i, op := range ops {
			if op.Kind == BAct {
				if i+1 >= len(ops) || ops[i+1].Kind != W {
					t.Fatalf("stage %d: BAct at %d not followed by W: %v", k, i, ops)
				}
			}
		}
	}
}

func TestGPipeOrderAllFThenB(t *testing.T) {
	s, err := GPipe(3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, ops := range s.Stages {
		seenB := false
		for _, op := range ops {
			if op.Kind == B {
				seenB = true
			} else if seenB {
				t.Fatalf("stage %d: forward after backward in GPipe order", k)
			}
		}
	}
}

func TestMEPipePieceCount(t *testing.T) {
	s, err := MEPipe(2, 1, 2, 2, 0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.WPieces != 7 {
		t.Fatalf("WPieces = %d, want 7", s.WPieces)
	}
	wantOps := 2 * 2 * (2 + 7) // n·s families × (F + BAct + 7 pieces)
	if got := len(s.Stages[0]); got != wantOps {
		t.Fatalf("stage 0 has %d ops, want %d", got, wantOps)
	}
}

// overlaps reports whether the backing arrays of a and b share memory.
func overlaps[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(*new(T))
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// TestReleaseReusesSafely: a released schedule's arrays go only to a
// later Generate, never into a schedule still held, and a generated
// schedule's stage lists are capped so an append cannot spill into the
// next stage's.
func TestReleaseReusesSafely(t *testing.T) {
	gen := func() *Schedule {
		s, err := MEPipe(4, 2, 2, 4, 0, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := gen()
	keep := make([][]Op, len(a.Stages))
	for k, ops := range a.Stages {
		keep[k] = append([]Op(nil), ops...)
	}
	ta := a.DepTable()
	keepTab := DepTable{
		Ix:     ta.Ix,
		Off:    append([]int32(nil), ta.Off...),
		ID:     append([]int32(nil), ta.ID...),
		OutOff: append([]int32(nil), ta.OutOff...),
		OutID:  append([]int32(nil), ta.OutID...),
		Cross:  ta.Cross, Neg: ta.Neg,
	}

	b := gen()
	b.Release()
	if b.Stages != nil || b.back != nil {
		t.Fatalf("released schedule keeps its lists or table")
	}
	c := gen()

	if !reflect.DeepEqual(a.Stages, keep) || !reflect.DeepEqual(*a.DepTable(), keepTab) {
		t.Fatal("generating after a release changed a schedule still held")
	}
	if !reflect.DeepEqual(c.Stages, keep) || !reflect.DeepEqual(*c.DepTable(), keepTab) {
		t.Fatal("a schedule built on released arrays differs from a fresh one")
	}
	for i := range a.Stages {
		for j := range c.Stages {
			if overlaps(a.Stages[i], c.Stages[j]) {
				t.Fatalf("stage %d of the held schedule shares memory with stage %d of the new one", i, j)
			}
		}
	}
	tc := c.DepTable()
	if overlaps(ta.Off, tc.Off) || overlaps(ta.ID, tc.ID) || overlaps(ta.OutOff, tc.OutOff) || overlaps(ta.OutID, tc.OutID) {
		t.Fatal("the held schedule's dependency table shares memory with the new one's")
	}

	next := append([]Op(nil), c.Stages[1]...)
	c.Stages[0] = append(c.Stages[0], Op{Kind: F, Micro: 99})
	if !reflect.DeepEqual(c.Stages[1], next) {
		t.Fatal("appending to stage 0's list wrote into stage 1's")
	}
}
