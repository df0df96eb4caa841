package lint

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testProgram loads the whole-program view of the seeded testdata tree.
func testProgram(t *testing.T) *Program {
	t.Helper()
	root := repoRoot(t)
	dirs, err := expand(root, []string{"./internal/lint/testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := loadProgram(root, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// findNode returns the unique function whose display name ends in suffix.
func findNode(t *testing.T, p *Program, suffix string) *FuncNode {
	t.Helper()
	var hit *FuncNode
	for _, n := range p.funcs {
		if strings.HasSuffix(n.name, suffix) {
			if hit != nil {
				t.Fatalf("suffix %q ambiguous: %s and %s", suffix, hit.name, n.name)
			}
			hit = n
		}
	}
	if hit == nil {
		t.Fatalf("no function %q in program", suffix)
	}
	return hit
}

// callsTo reports whether p's call graph has an edge from n to a function
// whose display name ends in suffix.
func callsTo(p *Program, n *FuncNode, suffix string) bool {
	for _, s := range p.successors(n) {
		if strings.HasSuffix(s.name, suffix) {
			return true
		}
	}
	return false
}

// TestCallGraphEdges covers the three edge kinds the deep analyzers depend
// on: same-package static calls, cross-package static calls resolved through
// real type-checking, and the two fallbacks (interface dispatch by
// name+arity, method values flowing through function-typed variables).
func TestCallGraphEdges(t *testing.T) {
	p := testProgram(t)

	entry := findNode(t, p, "deepdet.Entry")
	if !callsTo(p, entry, "deepdet.middle") {
		t.Error("missing same-package static edge Entry -> middle")
	}
	if !callsTo(p, findNode(t, p, "deepdet.middle"), "deephelp.Stamp") {
		t.Error("missing cross-package static edge middle -> deephelp.Stamp")
	}
	// Dispatch calls s.Tick() through a locally declared interface; only the
	// name+arity fallback can link it to the concrete method.
	if !callsTo(p, findNode(t, p, "deepdet.Dispatch"), "(Ticker).Tick") {
		t.Error("missing interface-dispatch fallback edge Dispatch -> (Ticker).Tick")
	}
	// Sample binds w.Wait to a variable and calls it; the method value makes
	// Wait address-taken and the dynamic fallback links the call site.
	if !callsTo(p, findNode(t, p, "deepdet.Sample"), "(Waiter).Wait") {
		t.Error("missing method-value fallback edge Sample -> (Waiter).Wait")
	}
	// Fallback edges must stay inside the caller's import closure: deephot
	// imports nothing, so its calls can never leak into deephelp.
	for _, s := range p.successors(findNode(t, p, "deephot.Warm")) {
		if strings.Contains(s.name, "deephelp") {
			t.Errorf("fallback edge escaped import closure: Warm -> %s", s.name)
		}
	}
	if got := p.successors(findNode(t, p, "deephelp.Pure")); len(got) != 0 {
		t.Errorf("leaf function has successors: %v", got)
	}
}

// TestTransitiveDeterminismChains pins the full-chain reporting: each
// violation carries the entry-point-to-sink path, including hops that only
// exist via the dispatch fallbacks.
func TestTransitiveDeterminismChains(t *testing.T) {
	root := repoRoot(t)
	diags, err := Run(root, []string{"./internal/lint/testdata/..."}, Options{Rules: []string{"transitive-determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("want 3 transitive-determinism violations, got %d: %v", len(diags), diags)
	}
	const pre = "internal/lint/testdata/internal/"
	want := [][]string{
		{pre + "deepdet.Entry", pre + "deepdet.middle", pre + "deephelp.Stamp"},
		{pre + "deepdet.Dispatch", pre + "deephelp.(Ticker).Tick"},
		{pre + "deepdet.Sample", pre + "deephelp.(Waiter).Wait"},
	}
	for i, d := range diags {
		if !reflect.DeepEqual(d.Chain, want[i]) {
			t.Errorf("diag %d chain = %v, want %v", i, d.Chain, want[i])
		}
		if !strings.Contains(d.Msg, "[via "+strings.Join(want[i], " -> ")+"]") {
			t.Errorf("diag %d message does not render its chain: %s", i, d.Msg)
		}
	}
}

// TestHotpathColdallocBoundary checks that a hotpath proof follows calls
// transitively but stops at audited mepipe:coldalloc functions: Step's
// make() two hops down is flagged with its chain, while Warm — whose only
// allocations sit behind a coldalloc refill, inside a panic argument, or in
// a self-append — stays silent.
func TestHotpathColdallocBoundary(t *testing.T) {
	root := repoRoot(t)
	diags, err := Run(root, []string{"./internal/lint/testdata/..."}, Options{Rules: []string{"hotpath-alloc"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the Step->scale->grow violation, got %v", diags)
	}
	d := diags[0]
	const pre = "internal/lint/testdata/internal/deephot."
	if want := []string{pre + "Step", pre + "scale", pre + "grow"}; !reflect.DeepEqual(d.Chain, want) {
		t.Errorf("chain = %v, want %v", d.Chain, want)
	}
	for _, n := range []string{"Warm", "refill"} {
		if strings.Contains(d.Msg, n) {
			t.Errorf("coldalloc-guarded function %s leaked into %s", n, d.Msg)
		}
	}
}

// TestBuildConstraints pins that the loader analyzes the program the host
// build compiles: of deeparch's scale_amd64.go / scale_other.go (!amd64)
// pair exactly one declaration of scale is loaded, the one go/build
// selects, and on amd64 its body-less assembly declaration is a leaf the
// hot-path proof passes through without a finding.
func TestBuildConstraints(t *testing.T) {
	p := testProgram(t)
	leaf := findNode(t, p, "deeparch.scale")
	wantFile := "scale_other.go"
	if runtime.GOARCH == "amd64" {
		wantFile = "scale_amd64.go"
	}
	if got := p.position(leaf.decl.Pos()).Filename; !strings.HasSuffix(got, "/deeparch/"+wantFile) {
		t.Errorf("scale loaded from %s, want the host build's %s", got, wantFile)
	}
	if !callsTo(p, findNode(t, p, "deeparch.Scale"), "deeparch.scale") {
		t.Error("missing edge Scale -> scale")
	}
	if runtime.GOARCH == "amd64" {
		if leaf.decl.Body != nil {
			t.Error("amd64 declaration of scale has a body")
		}
		if got := p.successors(leaf); len(got) != 0 {
			t.Errorf("assembly leaf has successors: %v", got)
		}
	}
	root := repoRoot(t)
	diags, err := Run(root, []string{"./internal/lint/testdata/internal/deeparch"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("deeparch reported diagnostics: %v", diags)
	}
}

// TestCtxFlow checks the context-threading analyzer on the seeded serve
// tree: Plan drops its ctx twice (fresh Background plus an unthreaded call),
// Derived threads a derived context and stays clean.
func TestCtxFlow(t *testing.T) {
	root := repoRoot(t)
	diags, err := Run(root, []string{"./internal/lint/testdata/..."}, Options{Rules: []string{"ctxflow"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 ctxflow violations, got %v", diags)
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "serve/flow.go") || d.Pos.Line != 12 {
			t.Errorf("violation outside Plan's body: %s", d)
		}
		if !strings.Contains(d.Msg, "Plan") {
			t.Errorf("message does not name the offending function: %s", d.Msg)
		}
	}
}

// TestAllowStale pins the staleness diagnostic: an allowlist entry that
// suppresses nothing is itself a violation, anchored at its line in the
// allowlist file — unless its rule was filtered out of the run, in which
// case the run cannot prove anything about the entry.
func TestAllowStale(t *testing.T) {
	root := repoRoot(t)
	allow := Allowlist{
		{Rule: "gospawn", PathSuffix: "pipeline/bad.go", Line: 3},
		{Rule: "noprint", PathSuffix: "no/such/file.go", Line: 7},
	}
	opts := Options{Allow: allow, ReportStale: true, AllowPath: ".mepipe-lint-allow"}
	diags, err := Run(root, []string{"./internal/lint/testdata/internal/pipeline"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly one allowstale diagnostic, got %v", diags)
	}
	d := diags[0]
	if d.Rule != "allowstale" || d.Pos.Filename != ".mepipe-lint-allow" || d.Pos.Line != 7 || d.Pos.Column != 1 {
		t.Errorf("staleness diagnostic anchored wrong: %s", d)
	}
	const wantMsg = "allowlist entry `noprint no/such/file.go` suppresses nothing; the violation it audited is gone — delete the entry"
	if d.Msg != wantMsg {
		t.Errorf("message = %q, want %q", d.Msg, wantMsg)
	}

	// With noprint filtered out of the run, its entry is exempt from the
	// staleness check and the used gospawn entry keeps suppressing.
	opts.Rules = []string{"gospawn"}
	diags, err = Run(root, []string{"./internal/lint/testdata/internal/pipeline"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("rule-filtered run reported diagnostics: %v", diags)
	}
}
