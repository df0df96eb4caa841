package verify

import (
	"errors"
	"reflect"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// FuzzDeltaMatchesCertify is the differential gate behind Delta, with
// Certify as its oracle. Over every preset family and budget mode, a
// stream of within-stage swaps and displacements runs against a Delta
// bound to the current schedule, and a fork of it checks each move: the
// verdict must be Certify's (AssumeComplete) at every step, and an
// accepted move becomes the new base. Byte layout:
//
//	[0..3]  preset, P, N, S
//	[4]     budget (see fuzzBudget)
//	[5..]   move stream, 3 bytes per move (see applyMove); bit 6 of a
//	        move's first byte builds the candidate as a full copy of the
//	        base instead of sharing its unmoved stages, which takes
//	        Check's out-of-contract path
func FuzzDeltaMatchesCertify(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 1, 11, 1, 0, 1, 0x81, 3, 4})
	f.Add([]byte{2, 2, 2, 0, 15, 0x80, 7, 9, 1, 1, 2, 0x41, 5, 6})
	f.Add([]byte{3, 1, 0, 1, 7, 0x82, 4, 0, 0x83, 8, 8, 2, 9, 10})
	f.Add([]byte{4, 0, 2, 0, 3, 0x81, 3, 6, 0, 0, 1})
	f.Add([]byte{5, 2, 1, 1, 6, 0x83, 11, 2, 2, 5, 4})
	f.Add([]byte{3, 2, 2, 1, 14, 0x81, 20, 16, 0x80, 30, 2, 0x82, 11, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		base := fuzzPreset(data[0]%6, 2+int(data[1]%3), 2+int(data[2]%3), 1+int(data[3]%2))
		if base == nil {
			t.Skip()
		}
		b := fuzzBudget(data[4], base.P)
		d := NewDelta(b)
		_, want := Certify(base, Options{Budget: b, AssumeComplete: true})
		if err := d.Bind(base); !reflect.DeepEqual(err, want) {
			t.Fatalf("Bind returned %v, Certify %v", err, want)
		}
		if want != nil {
			t.Skip("the preset itself does not fit the budget")
		}
		fork := d.Fork()
		for i := 5; i+2 < len(data); i += 3 {
			move := data[i : i+3]
			k := int(move[0]&0x7f) % base.P
			cand := oneStageCopy(base, k)
			if move[0]&0x40 != 0 {
				cand = cloneAll(base)
			}
			applyMove(cand, move)
			got := fork.Check(cand, k)
			_, want := Certify(cand, Options{Budget: b, AssumeComplete: true})
			if (got == nil) != (want == nil) {
				t.Fatalf("move %d on stage %d: Check says %v, Certify says %v", (i-5)/3, k, got, want)
			}
			if got != nil && !errors.Is(got, errs.ErrUncertified) {
				t.Fatalf("rejection does not wrap ErrUncertified: %v", got)
			}
			if got == nil {
				base = cand
				if err := d.Bind(base); err != nil {
					t.Fatalf("rebinding an accepted move: %v", err)
				}
			}
		}
	})
}

// oneStageCopy returns s with stage k cloned and every other stage
// shared — the shape of an optimizer proposal.
func oneStageCopy(s *sched.Schedule, k int) *sched.Schedule {
	c := *s
	c.Stages = append([][]sched.Op(nil), s.Stages...)
	c.Stages[k] = append([]sched.Op(nil), s.Stages[k]...)
	return &c
}

// cloneAll returns s with every stage cloned.
func cloneAll(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Stages = make([][]sched.Op, len(s.Stages))
	for k := range s.Stages {
		c.Stages[k] = append([]sched.Op(nil), s.Stages[k]...)
	}
	return &c
}

// TestDeltaOutOfContract pins the fallback: a candidate that is not a
// one-stage permutation of the base — another stage changed too, the
// wrong stage named, an op duplicated, a shape field or the placement
// changed, or no binding at all — gets Certify's exact answer,
// counterexample included.
func TestDeltaOutOfContract(t *testing.T) {
	base, err := sched.ZB1P(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta(nil)
	if err := d.Bind(base); err != nil {
		t.Fatal(err)
	}
	reversed := func(ops []sched.Op) {
		for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
			ops[i], ops[j] = ops[j], ops[i]
		}
	}
	cases := map[string]func() (*sched.Schedule, int){
		"two stages": func() (*sched.Schedule, int) {
			c := oneStageCopy(base, 0)
			c.Stages[1] = append([]sched.Op(nil), base.Stages[1]...)
			reversed(c.Stages[1])
			return c, 0
		},
		"wrong stage": func() (*sched.Schedule, int) {
			c := oneStageCopy(base, 2)
			reversed(c.Stages[2])
			return c, 1
		},
		"duplicate": func() (*sched.Schedule, int) {
			c := oneStageCopy(base, 1)
			c.Stages[1][3] = c.Stages[1][2]
			return c, 1
		},
		"shape": func() (*sched.Schedule, int) {
			c := oneStageCopy(base, 0)
			c.WPieces = 2
			return c, 0
		},
		"placement": func() (*sched.Schedule, int) {
			// A fresh Schedule, so Certify derives the dependencies
			// from the new placement instead of the base's cached table.
			c := &sched.Schedule{Name: base.Name, P: base.P, V: base.V, S: base.S, N: base.N,
				SplitBW: base.SplitBW, WPieces: base.WPieces, Place: reversedPlace{base.P},
				Stages: oneStageCopy(base, 0).Stages}
			return c, 0
		},
	}
	for name, mk := range cases {
		c, k := mk()
		_, want := Certify(c, Options{AssumeComplete: true})
		if want == nil {
			t.Fatalf("%s: the case certifies; it tests nothing", name)
		}
		if got := d.Check(c, k); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Check returned %v, Certify %v", name, got, want)
		}
	}
	c := oneStageCopy(base, 0)
	reversed(c.Stages[0])
	_, want := Certify(c, Options{AssumeComplete: true})
	if got := NewDelta(nil).Check(c, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("unbound: Check returned %v, Certify %v", got, want)
	}
}

// reversedPlace hosts global chunk g on stage P−1−g: the same shape as a
// one-chunk RoundRobin with every dependency pointing the other way.
type reversedPlace struct{ P int }

func (r reversedPlace) Host(g int) (int, int)   { return r.P - 1 - g, 0 }
func (r reversedPlace) Global(stage, _ int) int { return r.P - 1 - stage }
func (r reversedPlace) Stages() int             { return r.P }
func (r reversedPlace) ChunksPerStage() int     { return 1 }

// TestDeltaBindRejects pins that Bind refuses a base that does not
// certify, with Certify's counterexample, and then falls back to Certify
// for every Check until a good base is bound.
func TestDeltaBindRejects(t *testing.T) {
	base := mustDAPPLE(t, 3, 4)
	tight := SlotBudget([]int{1, 1, 1})
	d := NewDelta(tight)
	_, want := Certify(base, Options{Budget: tight, AssumeComplete: true})
	var be *BudgetError
	if err := d.Bind(base); !errors.As(err, &be) || !reflect.DeepEqual(err, want) {
		t.Fatalf("Bind over budget returned %v, want %v", err, want)
	}
	c := oneStageCopy(base, 0)
	c.Stages[0][0], c.Stages[0][1] = c.Stages[0][1], c.Stages[0][0]
	_, want = Certify(c, Options{Budget: tight, AssumeComplete: true})
	if got := d.Check(c, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("after a failed Bind, Check returned %v, Certify %v", got, want)
	}
}
