package sched

import (
	"reflect"
	"testing"
)

// offGrid is a round-robin placement whose host map sends global chunk 1
// off the pipeline, so dependency rows carry out-of-shape (-1) entries.
type offGrid struct{ RoundRobin }

func (o offGrid) Host(g int) (int, int) {
	if g == 1 {
		return o.P, 0
	}
	return o.RoundRobin.Host(g)
}

// naiveDepTable derives every row of the dependency table through Deps,
// op by op, and the dependents by one id-ordered scatter — the oracle for
// DepTable's micro-0 shift-copies.
func naiveDepTable(s *Schedule) *DepTable {
	x := s.indexer()
	total := x.total()
	t := &DepTable{Ix: OpIndex{x}, Off: make([]int32, total+1)}
	out := make([][]int32, total)
	var deps []Dep
	for id := 0; id < total; id++ {
		stage, op := x.opAt(int32(id))
		deps = s.Deps(deps[:0], stage, op)
		for _, d := range deps {
			from := x.id(d.Stage, d.Op)
			t.ID = append(t.ID, from)
			if from < 0 {
				t.Neg++
				continue
			}
			out[from] = append(out[from], int32(id))
			if d.Stage != stage {
				t.Cross++
			}
		}
		t.Off[id+1] = int32(len(t.ID))
	}
	t.OutOff = make([]int32, total+1)
	t.OutID = []int32{}
	for id, row := range out {
		t.OutID = append(t.OutID, row...)
		t.OutOff[id+1] = int32(len(t.OutID))
	}
	return t
}

func TestDepTableMatchesDeps(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"fused", &Schedule{P: 3, V: 2, S: 3, N: 4, Place: RoundRobin{P: 3, V: 2}}},
		{"split", &Schedule{P: 4, V: 1, S: 2, N: 3, SplitBW: true, Place: RoundRobin{P: 4, V: 1}}},
		{"pieces", &Schedule{P: 2, V: 2, S: 4, N: 5, SplitBW: true, WPieces: 3, Place: RoundRobin{P: 2, V: 2}}},
		{"wave", &Schedule{P: 3, V: 2, S: 2, N: 2, SplitBW: true, WPieces: 2, Place: Wave{P: 3}}},
		{"one micro", &Schedule{P: 2, V: 1, S: 3, N: 1, Place: RoundRobin{P: 2, V: 1}}},
		{"off grid", &Schedule{P: 2, V: 2, S: 2, N: 3, SplitBW: true, Place: offGrid{RoundRobin{P: 2, V: 2}}}},
	}
	for _, c := range cases {
		got, want := c.s.DepTable(), naiveDepTable(c.s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DepTable differs from the per-op derivation", c.name)
		}
		if c.name == "off grid" && got.Neg == 0 {
			t.Errorf("off grid: no out-of-shape entries")
		}
	}
}
