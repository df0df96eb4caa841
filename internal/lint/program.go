package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is the whole-module view the interprocedural analyzers run on:
// every package under the expanded patterns, parsed once and type-checked
// in dependency order. Module-internal imports resolve to the real checked
// packages (so cross-package calls and method selections resolve
// precisely); external imports are stubbed as before, and everything that
// cannot be resolved falls back to the syntactic tables.
type Program struct {
	root    string
	modPath string
	fset    *token.FileSet
	pkgs    []*progPkg
	byRel   map[string]*progPkg

	funcs []*FuncNode
	byObj map[types.Object]*FuncNode
	// closure memoizes each package's transitive module-internal import
	// set (including itself); the call-graph fallbacks only link to
	// candidates visible through it.
	closure map[string]map[string]bool
	// methodsByName indexes method declarations for the interface-dispatch
	// and method-value fallback: when a call's receiver type cannot be
	// resolved, the graph conservatively links every in-module method with
	// a compatible name and arity.
	methodsByName map[string][]*FuncNode
	// addrTaken lists functions referenced as values anywhere in the
	// module; dynamic calls through function-typed variables link to every
	// arity-compatible entry.
	addrTaken []*FuncNode
}

// progPkg is one analyzed package directory.
type progPkg struct {
	rel   string // slash-separated dir path relative to the module root ("" = root)
	path  string // import path within the module
	name  string // package name
	files []*progFile
	info  *types.Info // may be nil when type checking was impossible
	// funcsByName maps top-level (non-method) function names to their
	// nodes, the same-package fallback when type information is missing.
	funcsByName map[string]*FuncNode
}

// progFile is one parsed file plus its import-alias fallback table.
type progFile struct {
	pkg     *progPkg
	syntax  *ast.File
	imports map[string]string // local name -> import path
}

// pkgPath resolves an identifier to the import path of the package it
// names, or "" when it does not (including when a local declaration
// shadows the package name). Type information is authoritative; the alias
// table is the fallback.
func (pf *progFile) pkgPath(id *ast.Ident) string {
	if info := pf.pkg.info; info != nil {
		if obj, ok := info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return ""
		}
	}
	return pf.imports[id.Name]
}

// FuncNode is one function or method declaration in the call graph.
type FuncNode struct {
	pkg  *progPkg
	file *progFile
	decl *ast.FuncDecl
	name string // display name: <pkg rel>.<func> or <pkg rel>.(*T).M

	arity    int
	variadic bool

	// Annotations (//mepipe: directives in the doc comment).
	hotpath       bool // root of the static zero-allocation proof
	coldalloc     bool // audited allocation escape: traversal stops here
	deterministic bool // root of the transitive-determinism proof

	// Facts filled by the call-graph scan.
	calls     []callSite
	detSinks  []fact // wall-clock / global-rand reads
	allocs    []fact // allocating constructs (hot-path analyzer)
	refTaken  bool   // referenced as a value somewhere in the module
	succCache []*FuncNode
}

// fact is one position-anchored finding inside a function body.
type fact struct {
	pos token.Pos
	msg string
}

// loadProgram parses and type-checks every package under dirs. Malformed
// or misplaced //mepipe: directives are returned as diagnostics under the
// "annotation" rule (position-relative to root) rather than errors, so a
// typo cannot silently disable a proof.
func loadProgram(root string, dirs []string) (*Program, []Diagnostic, error) {
	p := &Program{
		root:          root,
		modPath:       modulePath(root),
		fset:          token.NewFileSet(),
		byRel:         map[string]*progPkg{},
		byObj:         map[types.Object]*FuncNode{},
		methodsByName: map[string][]*FuncNode{},
	}
	for _, dir := range dirs {
		pkg, err := p.parseDir(dir)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			p.pkgs = append(p.pkgs, pkg)
			p.byRel[pkg.rel] = pkg
		}
	}
	p.typecheckAll()
	p.indexFuncs()
	annDiags := p.applyDirectives()
	scanProgram(p)
	return p, annDiags, nil
}

// modulePath reads the module path from go.mod; a missing or malformed
// file falls back to the directory name.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, "module "); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return filepath.Base(root)
}

// importPath maps a root-relative directory to its import path.
func (p *Program) importPath(rel string) string {
	if rel == "" || rel == "." {
		return p.modPath
	}
	return p.modPath + "/" + rel
}

// relOf inverts importPath for module-internal paths; ok is false for
// external packages.
func (p *Program) relOf(path string) (string, bool) {
	if path == p.modPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, p.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// parseDir parses the non-test files of one directory that the host build
// compiles; nil when there are none.
func (p *Program) parseDir(dir string) (*progPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(p.root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	pkg := &progPkg{rel: rel, path: p.importPath(rel), funcsByName: map[string]*FuncNode{}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := isBuiltGoFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.files = append(pkg.files, &progFile{pkg: pkg, syntax: f, imports: importTable(f)})
	}
	if len(pkg.files) == 0 {
		return nil, nil
	}
	pkg.name = pkg.files[0].syntax.Name.Name
	return pkg, nil
}

// isBuiltGoFile reports whether dir/name is a Go file the host build
// compiles: its _GOOS/_GOARCH suffix and //go:build line match
// go/build.Default. The analyzers then see the one declaration of a
// function that the program links — for an arch-specific assembly leaf,
// its body-less Go declaration.
func isBuiltGoFile(dir, name string) (bool, error) {
	if !strings.HasSuffix(name, ".go") {
		return false, nil
	}
	ok, err := build.Default.MatchFile(dir, name)
	if err != nil {
		return false, fmt.Errorf("lint: %w", err)
	}
	return ok, nil
}

// importClosure returns the set of package rels (including pkg's own)
// that pkg can reach through module-internal imports. The fallback call
// edges are restricted to this set: an interface implementation or a
// function value must be importable by the calling package to be
// dispatched to, so candidates outside the closure are name collisions,
// not callees.
func (p *Program) importClosure(pkg *progPkg) map[string]bool {
	if p.closure == nil {
		p.closure = map[string]map[string]bool{}
	}
	if c, ok := p.closure[pkg.rel]; ok {
		return c
	}
	c := map[string]bool{pkg.rel: true}
	p.closure[pkg.rel] = c // set before recursing; Go imports cannot cycle
	for _, dep := range p.internalImports(pkg) {
		c[dep] = true
		for rel := range p.importClosure(p.byRel[dep]) {
			c[rel] = true
		}
	}
	return c
}

// internalImports lists the module-internal packages pkg imports that are
// part of this program.
func (p *Program) internalImports(pkg *progPkg) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.files {
		for _, imp := range f.syntax.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if rel, ok := p.relOf(path); ok && !seen[rel] {
				if _, present := p.byRel[rel]; present {
					seen[rel] = true
					out = append(out, rel)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// typecheckAll checks every package in dependency order, so that a
// package's module-internal imports resolve to fully checked packages and
// cross-package identifiers get real objects. Go forbids import cycles;
// should the walk still leave packages unprocessed, they are checked last
// with whatever has been resolved so far.
func (p *Program) typecheckAll() {
	im := &moduleImporter{prog: p, real: map[string]*types.Package{}, stubs: map[string]*types.Package{}}
	indeg := map[string]int{}
	rdeps := map[string][]string{}
	for _, pkg := range p.pkgs {
		deps := p.internalImports(pkg)
		indeg[pkg.rel] = len(deps)
		for _, d := range deps {
			rdeps[d] = append(rdeps[d], pkg.rel)
		}
	}
	var queue []string
	for _, pkg := range p.pkgs {
		if indeg[pkg.rel] == 0 {
			queue = append(queue, pkg.rel)
		}
	}
	sort.Strings(queue)
	var order []*progPkg
	for len(queue) > 0 {
		rel := queue[0]
		queue = queue[1:]
		order = append(order, p.byRel[rel])
		next := append([]string(nil), rdeps[rel]...)
		sort.Strings(next)
		for _, r := range next {
			if indeg[r]--; indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
		sort.Strings(queue)
	}
	for _, pkg := range p.pkgs { // defensive: anything the walk missed
		if indeg[pkg.rel] > 0 {
			order = append(order, pkg)
		}
	}
	for _, pkg := range order {
		p.typecheckPkg(pkg, im)
	}
}

// typecheckPkg runs go/types over one package; failures degrade to nil
// info (rules fall back to the syntactic import tables).
func (p *Program) typecheckPkg(pkg *progPkg, im *moduleImporter) {
	defer func() {
		if recover() != nil {
			pkg.info = nil
		}
	}()
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: im, Error: func(error) {}}
	files := make([]*ast.File, len(pkg.files))
	for i, f := range pkg.files {
		files[i] = f.syntax
	}
	tpkg, _ := conf.Check(pkg.path, p.fset, files, info) //nolint:errcheck // stubbed externals always error
	pkg.info = info
	if tpkg != nil {
		im.real[pkg.path] = tpkg
	}
}

// moduleImporter resolves module-internal imports to the real checked
// packages and stubs everything else (empty packages: enough for the
// checker to record which identifiers name imported packages).
type moduleImporter struct {
	prog  *Program
	real  map[string]*types.Package
	stubs map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if tp, ok := im.real[path]; ok {
		return tp, nil
	}
	if tp, ok := im.stubs[path]; ok {
		return tp, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	tp := types.NewPackage(path, name)
	tp.MarkComplete()
	im.stubs[path] = tp
	return tp, nil
}

// indexFuncs builds the function index and fallback tables.
func (p *Program) indexFuncs() {
	for _, pkg := range p.pkgs {
		for _, f := range pkg.files {
			for _, decl := range f.syntax.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				n := &FuncNode{pkg: pkg, file: f, decl: fd, name: displayName(pkg, fd)}
				n.arity, n.variadic = declArity(fd.Type)
				p.funcs = append(p.funcs, n)
				if pkg.info != nil {
					if obj := pkg.info.Defs[fd.Name]; obj != nil {
						p.byObj[obj] = n
					}
				}
				if fd.Recv != nil {
					p.methodsByName[fd.Name.Name] = append(p.methodsByName[fd.Name.Name], n)
				} else if _, dup := pkg.funcsByName[fd.Name.Name]; !dup {
					pkg.funcsByName[fd.Name.Name] = n
				}
			}
		}
	}
}

// displayName renders a stable human-readable function identifier used in
// reported call chains.
func displayName(pkg *progPkg, fd *ast.FuncDecl) string {
	prefix := pkg.rel
	if prefix == "" {
		prefix = pkg.name
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return prefix + "." + fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	return prefix + ".(" + recv + ")." + fd.Name.Name
}

// declArity counts declared parameters (each name counts; an unnamed
// field counts once) and reports variadicity.
func declArity(ft *ast.FuncType) (int, bool) {
	if ft.Params == nil {
		return 0, false
	}
	n := 0
	variadic := false
	for _, fld := range ft.Params.List {
		if len(fld.Names) == 0 {
			n++
		} else {
			n += len(fld.Names)
		}
		if _, ok := fld.Type.(*ast.Ellipsis); ok {
			variadic = true
		}
	}
	return n, variadic
}

// arityCompatible reports whether a call passing nargs arguments could
// invoke this function.
func (n *FuncNode) arityCompatible(nargs int) bool {
	if nargs < 0 { // unknown (method value): name match is all we have
		return true
	}
	if n.variadic {
		return nargs >= n.arity-1
	}
	return nargs == n.arity
}

// Directive names accepted in function doc comments.
const (
	dirHotpath       = "hotpath"
	dirColdalloc     = "coldalloc"
	dirDeterministic = "deterministic"
)

// applyDirectives parses //mepipe: directives out of doc comments and
// returns diagnostics for unknown, misplaced, or unjustified ones. A
// directive only counts when it sits in the doc comment of a function
// declaration; anywhere else it is dead weight that would silently
// weaken a proof, so it is reported.
func (p *Program) applyDirectives() []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, msg string) {
		out = append(out, Diagnostic{Rule: "annotation", Pos: p.position(pos), Msg: msg})
	}
	consumed := map[*ast.Comment]bool{}
	for _, n := range p.funcs {
		doc := n.decl.Doc
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			name, arg, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			consumed[c] = true
			switch name {
			case dirHotpath:
				n.hotpath = true
			case dirColdalloc:
				if strings.TrimSpace(arg) == "" {
					report(c.Pos(), "mepipe:coldalloc needs a justification (//mepipe:coldalloc <why this allocation is sanctioned>)")
				}
				n.coldalloc = true
			case dirDeterministic:
				n.deterministic = true
			default:
				report(c.Pos(), fmt.Sprintf("unknown directive //mepipe:%s (have hotpath, coldalloc, deterministic)", name))
			}
		}
		if n.hotpath && n.coldalloc {
			report(n.decl.Pos(), "function is annotated both mepipe:hotpath and mepipe:coldalloc; pick one")
		}
	}
	for _, pkg := range p.pkgs {
		for _, f := range pkg.files {
			for _, cg := range f.syntax.Comments {
				for _, c := range cg.List {
					if name, _, ok := parseDirective(c.Text); ok && !consumed[c] {
						report(c.Pos(), fmt.Sprintf("//mepipe:%s is not in the doc comment of a function declaration, so it has no effect", name))
					}
				}
			}
		}
	}
	return out
}

// parseDirective splits a "//mepipe:name arg..." comment line.
func parseDirective(text string) (name, arg string, ok bool) {
	rest, found := strings.CutPrefix(text, "//mepipe:")
	if !found {
		return "", "", false
	}
	name, arg, _ = strings.Cut(rest, " ")
	return name, arg, name != ""
}

// position converts a token.Pos to a root-relative Position.
func (p *Program) position(pos token.Pos) token.Position {
	pp := p.fset.Position(pos)
	if rp, err := filepath.Rel(p.root, pp.Filename); err == nil {
		pp.Filename = filepath.ToSlash(rp)
	}
	return pp
}

// importTable maps each import's local name to its path (the syntactic
// fallback when type information is unavailable).
func importTable(f *ast.File) map[string]string {
	t := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		t[name] = path
	}
	return t
}
