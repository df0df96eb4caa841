package verify

import (
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// TestUniverseTexts pins the error texts of the three full-table loaders
// — sched.Validate, Certify and a simulator session bound under
// AssumeValid — on single-fault DAPPLE(2,2) tables: each names the same
// fault in its own words, byte for byte.
func TestUniverseTexts(t *testing.T) {
	cases := []struct {
		name                       string
		mutate                     func(s *sched.Schedule)
		validate, certify, session string
	}{
		{"misfit", func(s *sched.Schedule) { s.Stages[1][0].Micro = 9 },
			"sched: DAPPLE{p=2 v=1 s=1 n=2 split=false} stage 1: op F[m9 s0 c0] out of range: incompatible configuration",
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: stage 1: op F[m9 s0 c0] out of range",
			"sim: session: op F[m9 s0 c0]@stage1 is outside the schedule shape: incompatible configuration"},
		{"duplicate", func(s *sched.Schedule) { s.Stages[1][2] = s.Stages[1][0] },
			"sched: DAPPLE{p=2 v=1 s=1 n=2 split=false} stage 1: duplicate op F[m0 s0 c0]: incompatible configuration",
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: stage 1: duplicate op F[m0 s0 c0]",
			"sim: session: duplicate op F[m0 s0 c0]@stage1: incompatible configuration"},
		{"short", func(s *sched.Schedule) { s.Stages[1] = s.Stages[1][:len(s.Stages[1])-1] },
			"sched: DAPPLE{p=2 v=1 s=1 n=2 split=false} stage 1: 3 ops, want 4: incompatible configuration",
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false} stage 1: incomplete op family: missing B[m1 s0 c0]",
			"sim: session: DAPPLE{p=2 v=1 s=1 n=2 split=false} has 7 ops in 2 stage lists, want the complete universe of 8 in 2: incompatible configuration"},
	}
	for _, c := range cases {
		s := cloneAll(mustDAPPLE(t, 2, 2))
		c.mutate(s)
		got := [3]error{s.Validate(), nil, nil}
		_, got[1] = Certify(s, Options{})
		_, got[2] = sim.NewSession(sim.Options{Sched: s, Costs: sim.Unit(), AssumeValid: true})
		for i, want := range []string{c.validate, c.certify, c.session} {
			if got[i] == nil || got[i].Error() != want {
				t.Errorf("%s, loader %d:\n got  %v\n want %s", c.name, i, got[i], want)
			}
		}
	}
}

// FuzzUniverseVerdicts holds the full-table loaders to one verdict on
// tables whose op universe a mutation stream may have broken: sched.
// Validate, Certify, sim.NewSession under AssumeValid, and Eval on a
// session bound to the clean preset (after the previous mutation's Eval,
// failed or not) must all accept or all reject every mutated table. A mutation never reorders ops, so a table that keeps the
// universe keeps the preset's valid order. Byte layout:
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
			verdicts := [4]error{s.Validate()}
			_, verdicts[1] = Certify(s, Options{})
			_, verdicts[2] = sim.NewSession(sim.Options{Sched: s, Costs: sim.Unit(), AssumeValid: true})
			_, verdicts[3] = bound.Eval(s)
			for _, v := range verdicts[1:] {
				if (v == nil) != (verdicts[0] == nil) {
					t.Fatalf("loaders disagree: validate=%v certify=%v session=%v eval=%v",
						verdicts[0], verdicts[1], verdicts[2], verdicts[3])
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
