package verify

import (
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// TestUniverseTexts pins the error texts of the two producers of the
// structural verdict — Certify, and a simulator session's bind plus its
// first Eval (sessionVerdict) — on single-fault DAPPLE(2,2) tables: each
// names the same fault in its own words, byte for byte.
func TestUniverseTexts(t *testing.T) {
	cases := []struct {
		name             string
		mutate           func(s *sched.Schedule)
		certify, session string
	}{
		{"misfit", func(s *sched.Schedule) { s.Stages[1][0].Micro = 9 },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: stage 1: op F[m9 s0 c0] out of range",
			"sim: session: op F[m9 s0 c0]@stage1 is outside the schedule shape: incompatible configuration"},
		{"duplicate", func(s *sched.Schedule) { s.Stages[1][2] = s.Stages[1][0] },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: stage 1: duplicate op F[m0 s0 c0]",
			"sim: session: duplicate op F[m0 s0 c0]@stage1: incompatible configuration"},
		{"short", func(s *sched.Schedule) { s.Stages[1] = s.Stages[1][:len(s.Stages[1])-1] },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false} stage 1: incomplete op family: missing B[m1 s0 c0]",
			"sim: session: DAPPLE{p=2 v=1 s=1 n=2 split=false} has 7 ops in 2 stage lists, want the complete universe of 8 in 2: incompatible configuration"},
		{"fused in split", func(s *sched.Schedule) { s.SplitBW = true },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=true}: stage 0: op B[m0 s0 c0] is a fused backward in a split schedule",
			"sim: session: op B[m0 s0 c0]@stage0 is outside the schedule shape: incompatible configuration"},
		{"stray piece", func(s *sched.Schedule) { s.Stages[1][0].Piece = 7 },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: stage 1: op F[m0 s0 c0] carries weight-gradient piece 7",
			"sim: session: op F[m0 s0 c0]@stage1 is outside the schedule shape: incompatible configuration"},
		{"deadlock", func(s *sched.Schedule) { // stage 0's backwards before its forwards
			s.Stages[0] = append(s.Stages[0][2:], s.Stages[0][:2]...)
		},
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false} deadlocks: dependency cycle of 3 ops: B[m0 s0 c0]@stage0 -order-> B[m1 s0 c0]@stage0 -order-> F[m0 s0 c0]@stage0 -dep-> B[m0 s0 c0]@stage0",
			"sim: session: 8 of 8 ops are on a program-order/dependency cycle (the order deadlocks): schedule failed certification"},
	}
	for _, c := range cases {
		s := cloneAll(mustDAPPLE(t, 2, 2))
		c.mutate(s)
		_, cerr := Certify(s, Options{})
		for i, got := range []error{cerr, sessionVerdict(s)} {
			if want := []string{c.certify, c.session}[i]; got == nil || got.Error() != want {
				t.Errorf("%s, producer %d:\n got  %v\n want %s", c.name, i, got, want)
			}
		}
	}
}

// sessionVerdict is the session's structural verdict on s: its bind's,
// else its first Eval's.
func sessionVerdict(s *sched.Schedule) error {
	se, err := sim.NewSession(sim.Options{Sched: s, Costs: sim.Unit()})
	if err != nil {
		return err
	}
	_, err = se.Eval(s)
	return err
}

// FuzzUniverseVerdicts holds the two producers of the structural verdict
// to one verdict on tables whose op universe a mutation stream may have
// broken: Certify, a session's bind plus its first Eval
// (sessionVerdict), and Eval on a session bound to the clean preset
// (after the previous mutation's Eval, failed or not) must all accept or
// all reject every mutated table. A mutation never reorders ops, so a
// table that keeps the universe keeps the preset's valid order. Byte
// layout:
//
//	[0..3]  preset, P, N, S (see fuzzPreset)
//	[4..]   mutation stream, 3 bytes per mutation (see mutateUniverse)
func FuzzUniverseVerdicts(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 3})
	f.Add([]byte{1, 1, 1, 1, 3, 5, 2})
	f.Add([]byte{2, 2, 2, 0, 4, 7, 0})
	f.Add([]byte{3, 1, 0, 1, 2, 11, 1, 4, 3, 0})
	f.Add([]byte{5, 2, 1, 1, 0, 4, 0, 1, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		clean := fuzzPreset(data[0]%6, 2+int(data[1]%3), 2+int(data[2]%3), 1+int(data[3]%2))
		if clean == nil {
			t.Skip()
		}
		bound, err := sim.NewSession(sim.Options{Sched: clean, Costs: sim.Unit()})
		if err != nil {
			t.Fatal(err)
		}
		s := cloneAll(clean)
		for i := 4; i+2 < len(data); i += 3 {
			mutateUniverse(s, data[i:i+3])
			var verdicts [3]error
			_, verdicts[0] = Certify(s, Options{})
			verdicts[1] = sessionVerdict(s)
			_, verdicts[2] = bound.Eval(s)
			for _, v := range verdicts[1:] {
				if (v == nil) != (verdicts[0] == nil) {
					t.Fatalf("producers disagree: certify=%v session=%v eval=%v",
						verdicts[0], verdicts[1], verdicts[2])
				}
			}
		}
	})
}

// mutateUniverse applies one mutation that may break a table's op
// universe without reordering it. The first byte picks the mutation (low
// three bits) and the stage (the rest), the second the op:
//
//	0: drop the op;
//	1: overwrite it with the op the third byte picks;
//	2: give it a stray piece number, past the last piece of a WPiece;
//	3: move a field the third byte picks out of range;
//	4: swap a backward between B and BAct.
func mutateUniverse(s *sched.Schedule, m []byte) {
	k := int(m[0]>>3) % s.P
	ops := s.Stages[k]
	if len(ops) == 0 {
		return
	}
	a := int(m[1]) % len(ops)
	switch m[0] & 7 % 5 {
	case 0:
		s.Stages[k] = append(ops[:a:a], ops[a+1:]...)
	case 1:
		ops[a] = ops[int(m[2])%len(ops)]
	case 2:
		ops[a].Piece = 1 + int(m[2]%7)
		if ops[a].Kind == sched.WPiece {
			ops[a].Piece += s.WPieces
		}
	case 3:
		switch m[2] % 4 {
		case 0:
			ops[a].Micro = s.N
		case 1:
			ops[a].Slice = -1
		case 2:
			ops[a].Chunk = s.V
		case 3:
			ops[a].Piece = -1
		}
	case 4:
		switch ops[a].Kind {
		case sched.B:
			ops[a].Kind = sched.BAct
		case sched.BAct:
			ops[a].Kind = sched.B
		}
	}
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
