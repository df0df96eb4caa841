package sched

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{F: "F", B: "B", BAct: "b", W: "W", WPiece: "w"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	rr := RoundRobin{P: 4, V: 3}
	for g := 0; g < 12; g++ {
		stage, local := rr.Host(g)
		if got := rr.Global(stage, local); got != g {
			t.Errorf("round-robin: Host(%d) = (%d,%d) but Global = %d", g, stage, local, got)
		}
	}
	// Fig 4(b): with p=4 the second chunk of stage 0 is global chunk 4,
	// directly after global chunk 3 on stage 3.
	if s, l := rr.Host(4); s != 0 || l != 1 {
		t.Errorf("Host(4) = (%d,%d), want (0,1)", s, l)
	}
}

func TestWavePlacement(t *testing.T) {
	w := Wave{P: 4}
	for g := 0; g < 8; g++ {
		stage, local := w.Host(g)
		if got := w.Global(stage, local); got != g {
			t.Errorf("wave: Host(%d) = (%d,%d) but Global = %d", g, stage, local, got)
		}
	}
	// The wave reflects: chunk p lives on the last stage.
	if s, _ := w.Host(4); s != 3 {
		t.Errorf("wave Host(4) on stage %d, want 3", s)
	}
	if s, _ := w.Host(7); s != 0 {
		t.Errorf("wave Host(7) on stage %d, want 0", s)
	}
}

func TestDepsForward(t *testing.T) {
	s := &Schedule{P: 4, V: 2, S: 2, N: 2, Place: RoundRobin{P: 4, V: 2}}
	// First op of the iteration has no dependencies.
	d := s.Deps(nil, 0, Op{Kind: F, Micro: 0, Slice: 0, Chunk: 0})
	if len(d) != 0 {
		t.Errorf("F[m0 s0 c0]@0 deps = %v, want none", d)
	}
	// Slice 1 needs slice 0's KV on the same stage.
	d = s.Deps(nil, 0, Op{Kind: F, Micro: 0, Slice: 1, Chunk: 0})
	if len(d) != 1 || d[0].Stage != 0 || d[0].Op.Slice != 0 {
		t.Errorf("F[m0 s1 c0]@0 deps = %v, want KV dep on slice 0", d)
	}
	// Stage 0's second chunk depends on stage 3's first chunk (wrap).
	d = s.Deps(nil, 0, Op{Kind: F, Micro: 0, Slice: 0, Chunk: 1})
	found := false
	for _, dep := range d {
		if dep.Stage == 3 && dep.Op.Kind == F && dep.Op.Chunk == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("F[m0 s0 c1]@0 deps = %v, want wrap dep on stage 3 chunk 0", d)
	}
}

func TestDepsBackward(t *testing.T) {
	s := &Schedule{P: 4, V: 2, S: 2, N: 2, Place: RoundRobin{P: 4, V: 2}}
	// The very first backward: B of the last slice on the last global
	// chunk requires only its own forward (the loss) — plus nothing else.
	d := s.Deps(nil, 3, Op{Kind: B, Micro: 0, Slice: 1, Chunk: 1})
	if len(d) != 1 || d[0].Op.Kind != F || d[0].Stage != 3 {
		t.Errorf("first backward deps = %v, want only its own forward", d)
	}
	// B of slice 0 additionally needs slice 1's backward (KV gradients).
	d = s.Deps(nil, 3, Op{Kind: B, Micro: 0, Slice: 0, Chunk: 1})
	var kv bool
	for _, dep := range d {
		if dep.Stage == 3 && dep.Op.Kind == B && dep.Op.Slice == 1 {
			kv = true
		}
	}
	if !kv {
		t.Errorf("B[m0 s0 c1]@3 deps = %v, want KV-gradient dep on slice 1", d)
	}
	// Backward chunk wrap: B on stage 3 chunk 0 gets its gradient from
	// stage 0 chunk 1 (global chunk 4 follows global chunk 3).
	d = s.Deps(nil, 3, Op{Kind: B, Micro: 0, Slice: 1, Chunk: 0})
	var wrap bool
	for _, dep := range d {
		if dep.Stage == 0 && dep.Op.Kind == B && dep.Op.Chunk == 1 {
			wrap = true
		}
	}
	if !wrap {
		t.Errorf("B[m0 s1 c0]@3 deps = %v, want gradient wrap from stage 0 chunk 1", d)
	}
}

func TestDepsWeightGrad(t *testing.T) {
	s := &Schedule{P: 2, V: 1, S: 1, N: 1, SplitBW: true, WPieces: 3, Place: RoundRobin{P: 2, V: 1}}
	d := s.Deps(nil, 1, Op{Kind: WPiece, Micro: 0, Piece: 2})
	if len(d) != 1 || d[0].Op.Kind != BAct || d[0].Stage != 1 {
		t.Errorf("WPiece deps = %v, want only same-stage BAct", d)
	}
}

func TestGenerateRejectsBadShape(t *testing.T) {
	if _, err := Generate(GenOptions{P: 0, V: 1, S: 1, N: 1}); err == nil {
		t.Error("generator accepted p=0")
	}
}

func TestDefaultF(t *testing.T) {
	// §4.4: f = v·max(p,s) + min(p,s) − 1.
	cases := []struct{ p, v, s, want int }{
		{4, 1, 2, 5},  // Fig 4(a): 5 slice activations
		{4, 2, 2, 9},  // Fig 4(b): 9 chunk-slice activations
		{8, 1, 1, 8},  // DAPPLE limit
		{4, 1, 8, 11}, // s > p
	}
	for _, c := range cases {
		if got := DefaultF(c.p, c.v, c.s); got != c.want {
			t.Errorf("DefaultF(%d,%d,%d) = %d, want %d", c.p, c.v, c.s, got, c.want)
		}
	}
}

func TestDAPPLEIsOneFOneB(t *testing.T) {
	s, err := DAPPLE(4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The last stage must strictly alternate F,B,F,B,…
	last := s.Stages[3]
	for i, op := range last {
		want := F
		if i%2 == 1 {
			want = B
		}
		if op.Kind != want {
			t.Fatalf("stage 3 op %d is %s, want kind %s", i, op, want)
		}
	}
}

func TestScheduleString(t *testing.T) {
	s, err := MEPipe(4, 1, 2, 4, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	if !strings.Contains(str, "MEPipe") || !strings.Contains(str, "s=2") {
		t.Errorf("String() = %q", str)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	builds := []func() (*Schedule, error){
		func() (*Schedule, error) { return DAPPLE(4, 6, nil) },
		func() (*Schedule, error) { return MEPipe(4, 2, 2, 3, 0, 3, nil) },
		func() (*Schedule, error) { return ZBV(4, 4, nil) },
	}
	for _, build := range builds {
		orig, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != orig.String() || got.WPieces != orig.WPieces {
			t.Fatalf("round trip changed header: %s vs %s", got, orig)
		}
		for k := range orig.Stages {
			if len(got.Stages[k]) != len(orig.Stages[k]) {
				t.Fatalf("stage %d length changed", k)
			}
			for i := range orig.Stages[k] {
				if got.Stages[k][i] != orig.Stages[k][i] {
					t.Fatalf("stage %d op %d changed: %v vs %v", k, i, got.Stages[k][i], orig.Stages[k][i])
				}
			}
		}
	}
}

// TestLoadRejectsTampered: Load only decodes, so it loads a saved file
// and refuses what it cannot decode. A tampered order is the certifier's
// to reject (TestLoadScheduleCertifies, in the root package).
func TestLoadRejectsTampered(t *testing.T) {
	orig, err := DAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(strings.NewReader(buf.String())); err != nil {
		t.Errorf("saved file: %v", err)
	}
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"placement":"diagonal","p":1,"v":1,"s":1,"n":1}`)); err == nil {
		t.Error("unknown placement accepted")
	}
	// A shape past the int32 op ids is refused before anything is sized
	// by it.
	for _, n := range []string{"4611686018427387904", "9223372036854775807"} {
		doc := `{"placement":"round-robin","p":2,"v":1,"s":1,"n":` + n + `,"stages":[[],[]]}`
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("n=%s: a shape past the op ids loaded", n)
		}
	}
}

func TestOpKey(t *testing.T) {
	op := Op{Kind: WPiece, Micro: 3, Slice: 1, Chunk: 2, Piece: 5}
	k := op.Key()
	if k.Piece != 0 || k.Kind != F || k.Micro != 3 || k.Slice != 1 || k.Chunk != 2 {
		t.Errorf("Key() = %+v", k)
	}
	b := Op{Kind: BAct, Micro: 3, Slice: 1, Chunk: 2}
	if b.Key() != k {
		t.Error("family members must share a key")
	}
}

func TestOpsPerStage(t *testing.T) {
	cases := []struct {
		s    Schedule
		want int
	}{
		{Schedule{P: 4, V: 1, S: 1, N: 6}, 12},
		{Schedule{P: 4, V: 2, S: 3, N: 2, SplitBW: true}, 36},
		{Schedule{P: 4, V: 1, S: 2, N: 2, SplitBW: true, WPieces: 7}, 36},
	}
	for i, c := range cases {
		if got := c.s.OpsPerStage(); got != c.want {
			t.Errorf("case %d: OpsPerStage = %d, want %d", i, got, c.want)
		}
	}
}

// TestWaveWithSplitShapes: ZBV across pipeline depths.
func TestWaveWithSplitShapes(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{1, 3, 8} {
			s, err := ZBV(p, n, nil)
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			// Every W must appear after its BAct on the same stage.
			for k, ops := range s.Stages {
				seen := map[Op]bool{}
				for _, op := range ops {
					if op.Kind == W {
						b := op
						b.Kind = BAct
						if !seen[b] {
							t.Fatalf("p=%d n=%d stage %d: %v before its backward", p, n, k, op)
						}
					}
					seen[op] = true
				}
			}
		}
	}
}
