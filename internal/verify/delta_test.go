package verify

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// FuzzDeltaMatchesCertify is the differential gate behind Delta, with
// Certify as its oracle. Over every preset family and budget mode, a
// stream of within-stage swaps and displacements runs against a Delta
// bound to the current schedule, and a fork of it checks each move: the
// verdict must be Certify's at every step, and an
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
		_, want := Certify(base, Options{Budget: b})
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
			_, want := Certify(cand, Options{Budget: b})
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
		_, want := Certify(c, Options{})
		if want == nil {
			t.Fatalf("%s: the case certifies; it tests nothing", name)
		}
		if got := d.Check(c, k); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Check returned %v, Certify %v", name, got, want)
		}
	}
	c := oneStageCopy(base, 0)
	reversed(c.Stages[0])
	_, want := Certify(c, Options{})
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
	_, want := Certify(base, Options{Budget: tight})
	var be *BudgetError
	if err := d.Bind(base); !errors.As(err, &be) || !reflect.DeepEqual(err, want) {
		t.Fatalf("Bind over budget returned %v, want %v", err, want)
	}
	c := oneStageCopy(base, 0)
	c.Stages[0][0], c.Stages[0][1] = c.Stages[0][1], c.Stages[0][0]
	_, want = Certify(c, Options{Budget: tight})
	if got := d.Check(c, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("after a failed Bind, Check returned %v, Certify %v", got, want)
	}
}

// FuzzDeltaRebind is Rebind's differential gate, with a fresh Bind as its
// oracle, over FuzzDeltaMatchesCertify's byte layout. Every move is
// checked against Certify; after every accepted one, the rebound Delta's
// positions, successors and retention tables must equal a fresh Bind's of
// the accepted schedule, and its ranks must be a topological order of it.
// Every accepted schedule's certified peaks must also equal a static
// sim.Run's under the budget's footprints (see requirePeaksMatch).
func FuzzDeltaRebind(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 0, 1, 2, 0x80, 3, 9})
	f.Add([]byte{1, 1, 1, 1, 11, 0x81, 0, 1, 0x81, 3, 4, 1, 5, 6})
	f.Add([]byte{2, 2, 2, 0, 15, 0x80, 7, 9, 1, 1, 2, 0x41, 5, 6})
	f.Add([]byte{3, 1, 0, 1, 7, 0x82, 4, 0, 0x83, 8, 8, 2, 9, 10})
	f.Add([]byte{3, 2, 2, 1, 14, 0x81, 20, 16, 0x80, 30, 2, 0x82, 11, 1})
	f.Add([]byte{5, 2, 1, 1, 6, 0x83, 11, 2, 2, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		rebindStream(t, data)
	})
}

// TestDeltaRebindMatchesBind runs seeded move streams through
// rebindStream over every preset family and budget mode, and requires
// them to accept enough moves to mean something.
func TestDeltaRebindMatchesBind(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for preset := byte(0); preset < 6; preset++ {
		for _, budget := range []byte{8, 3, 7} {
			data := []byte{preset, 2, 2, 1, budget}
			for i := 0; i < 3*150; i++ {
				data = append(data, byte(rng.Intn(256)))
			}
			accepted += rebindStream(t, data)
		}
	}
	t.Logf("%d moves accepted and rebound", accepted)
	if accepted < 400 {
		t.Fatalf("the streams accepted only %d moves", accepted)
	}
}

// rebindStream decodes data as FuzzDeltaMatchesCertify does and walks its
// move stream, moving the binding by Rebind on every accepted move and
// holding it to a fresh Bind. It returns how many moves were accepted.
func rebindStream(t *testing.T, data []byte) int {
	t.Helper()
	base := fuzzPreset(data[0]%6, 2+int(data[1]%3), 2+int(data[2]%3), 1+int(data[3]%2))
	if base == nil {
		return 0
	}
	b := fuzzBudget(data[4], base.P)
	d := NewDelta(b)
	if d.Bind(base) != nil {
		return 0 // the preset itself does not fit the budget
	}
	fork := d.Fork()
	accepted := 0
	for i := 5; i+2 < len(data); i += 3 {
		move := data[i : i+3]
		k := int(move[0]&0x7f) % base.P
		cand := oneStageCopy(base, k)
		if move[0]&0x40 != 0 {
			cand = cloneAll(base)
		}
		applyMove(cand, move)
		got := fork.Check(cand, k)
		_, want := Certify(cand, Options{Budget: b})
		if (got == nil) != (want == nil) {
			t.Fatalf("move %d on stage %d: Check says %v, Certify says %v", (i-5)/3, k, got, want)
		}
		if got != nil {
			continue
		}
		if err := d.Rebind(cand, k); err != nil {
			t.Fatalf("move %d: rebinding an accepted move: %v", (i-5)/3, err)
		}
		base = cand
		accepted++
		requireBoundLike(t, d, base, b)
		act, grad := b.footprints()
		requirePeaksMatch(t, base, act, grad)
	}
	return accepted
}

// requireBoundLike asserts that d is bound to s exactly as a fresh Bind
// would leave it, up to the choice of topological order: same positions,
// successors and retention tables, and ranks that order every dependency
// and program-order edge of s forward.
func requireBoundLike(t *testing.T, d *Delta, s *sched.Schedule, budget *Budget) {
	t.Helper()
	fresh := NewDelta(budget)
	if err := fresh.Bind(s); err != nil {
		t.Fatalf("a fresh Bind of the accepted schedule: %v", err)
	}
	got, want := d.b, fresh.b
	if got.base != s || got.dense != want.dense || got.capped != want.capped {
		t.Fatalf("binding: base %v dense %v capped %v, want %v %v %v", got.base == s, got.dense, got.capped, true, want.dense, want.capped)
	}
	if !want.dense {
		return
	}
	if !slices.Equal(got.pos, want.pos) || !slices.Equal(got.next, want.next) {
		t.Fatal("rebound positions or successors differ from a fresh Bind's")
	}
	if want.capped && (!slices.Equal(got.live, want.live) || !slices.Equal(got.relPos, want.relPos) ||
		!slices.Equal(got.famB, want.famB) || !slices.Equal(got.gradB, want.gradB)) {
		t.Fatal("rebound retention tables differ from a fresh Bind's")
	}
	rank, order := got.topo.Rank, got.topo.Order
	if len(rank) != len(want.pos) || len(order) != len(rank) {
		t.Fatalf("rank tables hold %d/%d entries, want %d", len(rank), len(order), len(want.pos))
	}
	tab := s.DepTable()
	for id := range rank {
		if order[rank[id]] != int32(id) {
			t.Fatalf("order does not invert rank at op %d", id)
		}
		for _, j := range tab.ID[tab.Off[id]:tab.Off[id+1]] {
			if rank[j] >= rank[id] {
				t.Fatalf("dependency %d -> %d ranks backward (%d ≥ %d)", j, id, rank[j], rank[id])
			}
		}
		if j := got.next[id]; j >= 0 && rank[j] <= rank[id] {
			t.Fatalf("program order %d -> %d ranks backward (%d ≥ %d)", id, j, rank[id], rank[j])
		}
	}
}
