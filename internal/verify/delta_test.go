package verify

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mepipe/internal/sched"
)

// FuzzDeltaMatchesCertify is the differential gate behind Delta's budget
// sweep, with Certify as its oracle. Over every preset family and budget
// mode, a stream of within-stage swaps and displacements runs against a
// Delta bound to the current schedule, and a fork of it sweeps each
// move's window: for every move that leaves the schedule acyclic, Fits
// must agree with Certify under the budget, and an accepted move becomes
// the new base. (A cyclic move's deadlock verdict is the simulator
// overlay's; internal/opt's FuzzMoveMatchesCertifyAndRun gates the two
// verdicts together.) Byte layout:
//
//	[0..3]  preset, P, N, S
//	[4]     budget (see fuzzBudget)
//	[5..]   move stream, 3 bytes per move (see applyMove); bit 6 of a
//	        move's first byte is ignored
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
			cand, m := moveOf(base, data[i:i+3])
			if _, err := Certify(cand, Options{}); err != nil {
				continue // cyclic: Fits makes no claim
			}
			got := fork.Fits(m.k, m.lo, m.ops, m.ids)
			_, want := Certify(cand, Options{Budget: b})
			if got != (want == nil) {
				t.Fatalf("move %d on stage %d: Fits says %v, Certify says %v", (i-5)/3, m.k, got, want)
			}
			if got {
				base = cand
				if err := d.Bind(base); err != nil {
					t.Fatalf("rebinding an accepted move: %v", err)
				}
			}
		}
	})
}

// window is one move as Delta takes it: stage k's positions lo onward
// reordered to ops, whose OpIndex ids are ids.
type window struct {
	k, lo int
	ops   []sched.Op
	ids   []int32
}

// moveOf applies the move bytes (see applyMove) to a one-stage copy of
// base and returns the moved schedule with its window: the positions
// where the moved stage differs from base's, empty when none does.
func moveOf(base *sched.Schedule, move []byte) (*sched.Schedule, window) {
	k := int(move[0]&0x7f) % base.P
	cand := oneStageCopy(base, k)
	applyMove(cand, move)
	bops, cops := base.Stages[k], cand.Stages[k]
	lo, hi := 0, len(cops)-1
	for lo <= hi && cops[lo] == bops[lo] {
		lo++
	}
	for hi >= lo && cops[hi] == bops[hi] {
		hi--
	}
	m := window{k: k, lo: lo, ops: cops[lo : hi+1]}
	x := sched.IndexOf(base)
	for _, op := range m.ops {
		m.ids = append(m.ids, x.ID(k, op))
	}
	return cand, m
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

// TestDeltaOutOfContract pins what Fits refuses: a window on a stage the
// shape lacks, one that runs past its stage's end or starts before it,
// and one whose ids do not pair with its ops; and, on a Delta that was
// never bound, every move. A Delta whose budget caps no stage fits every
// move of its binding.
func TestDeltaOutOfContract(t *testing.T) {
	base := mustDAPPLE(t, 3, 4)
	d := NewDelta(SlotBudget([]int{3, 3, 3}))
	if err := d.Bind(base); err != nil {
		t.Fatal(err)
	}
	_, m := moveOf(base, []byte{1, 2, 3})
	if !d.Fits(m.k, m.lo, m.ops, m.ids) {
		t.Fatal("an in-contract move that fits was refused")
	}
	per := len(base.Stages[0])
	cases := map[string]window{
		"stage":   {k: base.P, lo: m.lo, ops: m.ops, ids: m.ids},
		"past":    {k: m.k, lo: per - len(m.ops) + 1, ops: m.ops, ids: m.ids},
		"before":  {k: m.k, lo: -1, ops: m.ops, ids: m.ids},
		"ids":     {k: m.k, lo: m.lo, ops: m.ops, ids: m.ids[1:]},
		"unbound": m,
	}
	for name, w := range cases {
		dd := d
		if name == "unbound" {
			dd = NewDelta(SlotBudget([]int{3, 3, 3}))
		}
		if dd.Fits(w.k, w.lo, w.ops, w.ids) {
			t.Errorf("%s: Fits accepted the move", name)
		}
	}
	free := NewDelta(nil)
	if err := free.Bind(base); err != nil {
		t.Fatal(err)
	}
	if !free.Fits(m.k, m.lo, m.ops, m.ids) {
		t.Error("a Delta without caps refused a move")
	}
}

// TestDeltaBindRejects pins that Bind refuses a base that does not
// certify, with Certify's counterexample, and then fits no move until a
// good base is bound.
func TestDeltaBindRejects(t *testing.T) {
	base := mustDAPPLE(t, 3, 4)
	tight := SlotBudget([]int{1, 1, 1})
	d := NewDelta(tight)
	_, want := Certify(base, Options{Budget: tight})
	var be *BudgetError
	if err := d.Bind(base); !errors.As(err, &be) || !reflect.DeepEqual(err, want) {
		t.Fatalf("Bind over budget returned %v, want %v", err, want)
	}
	_, m := moveOf(base, []byte{0, 0, 1})
	if d.Fits(m.k, m.lo, m.ops, m.ids) {
		t.Error("after a failed Bind, Fits accepted a move")
	}
	d = NewDelta(SlotBudget([]int{3, 3, 3}))
	if err := d.Bind(base); err != nil {
		t.Fatal(err)
	}
	if !d.Fits(m.k, m.lo, m.ops, m.ids) {
		t.Error("after a good Bind, Fits refused a move that fits")
	}
}

// FuzzDeltaRebind is Rebind's differential gate, with a fresh Bind as its
// oracle, over FuzzDeltaMatchesCertify's byte layout. Every acyclic move
// is swept against Certify; after every accepted one, the rebound Delta's
// retention tables must equal a fresh Bind's of the accepted schedule.
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
		cand, m := moveOf(base, data[i:i+3])
		if _, err := Certify(cand, Options{}); err != nil {
			continue // cyclic: Fits makes no claim
		}
		got := fork.Fits(m.k, m.lo, m.ops, m.ids)
		_, want := Certify(cand, Options{Budget: b})
		if got != (want == nil) {
			t.Fatalf("move %d on stage %d: Fits says %v, Certify says %v", (i-5)/3, m.k, got, want)
		}
		if !got {
			continue
		}
		if !d.Rebind(m.k, m.lo, m.ops, m.ids) {
			t.Fatalf("move %d: Rebind refused an accepted move", (i-5)/3)
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
// would leave it: the same retention tables.
func requireBoundLike(t *testing.T, d *Delta, s *sched.Schedule, budget *Budget) {
	t.Helper()
	fresh := NewDelta(budget)
	if err := fresh.Bind(s); err != nil {
		t.Fatalf("a fresh Bind of the accepted schedule: %v", err)
	}
	got, want := d.b, fresh.b
	if got.dense != want.dense || got.capped != want.capped {
		t.Fatalf("binding: dense %v capped %v, want %v %v", got.dense, got.capped, want.dense, want.capped)
	}
	if want.capped && (!slices.Equal(got.live, want.live) || !slices.Equal(got.relPos, want.relPos) ||
		!slices.Equal(got.famB, want.famB) || !slices.Equal(got.gradB, want.gradB)) {
		t.Fatal("rebound retention tables differ from a fresh Bind's")
	}
}
