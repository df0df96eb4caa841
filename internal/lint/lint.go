// Package lint implements mepipe-lint, the repository's zero-dependency
// static analyzers. Each rule enforces one repo invariant that ordinary
// tests cannot: deterministic packages must not read wall clocks or the
// global math/rand stream, the pipeline runtime must route every goroutine
// through its latch-guarded spawn helper, library packages must not write
// to stdout, and errors crossing a package boundary must wrap an errs
// sentinel so callers can classify them with errors.Is.
//
// On top of the per-file rules sit three whole-program analyzers built on
// a module-wide call graph (see callgraph.go): transitive determinism
// from //mepipe:deterministic entry points, the static zero-allocation
// proof for //mepipe:hotpath functions, and context-flow checking for the
// exported serve/strategy/opt API. Their violations report the full call
// chain from the annotated root to the offending construct.
//
// Everything is built on go/parser and go/types only. The module is
// parsed once, keeping only the files go/build says the host build
// compiles; packages are type-checked in dependency order with
// module-internal imports resolving to the real checked packages and
// external imports stubbed as empty packages, falling back to each file's
// import-alias table when type information is missing. Test files
// (*_test.go) are exempt from every rule.
//
// Findings can be suppressed through an allowlist file (one `rule
// path-suffix` pair per line, `#` comments); the repository's audited
// exceptions live in .mepipe-lint-allow at the module root. The allowlist
// is strict: on whole-module runs an entry that suppresses nothing is
// itself reported (rule "allowstale"), so dead exceptions cannot
// accumulate. See docs/VERIFICATION.md for the rule catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one rule violation anchored to a file position. Filename
// is relative to the module root, slash-separated, so output is stable
// across machines. Chain, set only by the whole-program analyzers, is the
// call path from the annotated root to the function containing the
// violation (root first); it is also rendered into Msg.
type Diagnostic struct {
	Rule  string
	Pos   token.Position
	Msg   string
	Chain []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// AllowEntry suppresses one rule for files whose root-relative path ends
// with PathSuffix. Line is the 1-based line in the allowlist file it was
// parsed from, used to anchor staleness diagnostics.
type AllowEntry struct {
	Rule       string
	PathSuffix string
	Line       int
}

// Allowlist is the parsed set of audited exceptions.
type Allowlist []AllowEntry

// ParseAllowlist reads the `rule path-suffix` line format. Blank lines and
// `#` comments are skipped; any other malformed line is an error so typos
// cannot silently disable enforcement.
func ParseAllowlist(data []byte) (Allowlist, error) {
	var a Allowlist
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("lint: allowlist line %d: want `rule path-suffix`, got %q", i+1, line)
		}
		a = append(a, AllowEntry{Rule: fields[0], PathSuffix: fields[1], Line: i + 1})
	}
	return a, nil
}

// LoadAllowlist reads an allowlist file; a missing file is an empty list.
func LoadAllowlist(path string) (Allowlist, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return ParseAllowlist(data)
}

// Allows reports whether the entry set suppresses rule at file (a
// root-relative slash path).
func (a Allowlist) Allows(rule, file string) bool {
	for _, e := range a {
		if e.Rule == rule && strings.HasSuffix(file, e.PathSuffix) {
			return true
		}
	}
	return false
}

// Options configures a Run.
type Options struct {
	// Allow suppresses matching diagnostics.
	Allow Allowlist
	// Rules restricts the run to the named rules; empty means all.
	Rules []string
	// ReportStale turns unused allowlist entries into "allowstale"
	// diagnostics. Only meaningful on whole-module runs — on a package
	// subset most entries legitimately match nothing — so callers enable
	// it when the patterns cover the module (cmd/mepipe-lint does for
	// `./...`).
	ReportStale bool
	// AllowPath is the root-relative path of the allowlist file, used to
	// position staleness diagnostics; defaults to ".mepipe-lint-allow".
	AllowPath string
}

// Run expands the package patterns (Go-style: a directory, or a `/...`
// suffix for a recursive walk that skips testdata, vendor and dot
// directories) relative to the module root, loads the whole program,
// analyzes every non-test file, and returns the surviving diagnostics
// sorted by position.
func Run(root string, patterns []string, opts Options) ([]Diagnostic, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}
	enabled := map[string]bool{}
	for _, r := range opts.Rules {
		enabled[r] = true
	}
	on := func(rule string) bool { return len(enabled) == 0 || enabled[rule] }

	prog, annDiags, err := loadProgram(root, dirs)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	if on("annotation") {
		out = append(out, annDiags...)
	}
	for _, pkg := range prog.pkgs {
		for _, pf := range pkg.files {
			fc := &fileCtx{pf: pf, file: pf.syntax}
			for _, r := range rules {
				if !on(r.name) || !r.applies(pkg.rel) {
					continue
				}
				rule := r.name // capture for the closure
				r.check(fc, func(pos token.Pos, msg string) {
					out = append(out, Diagnostic{Rule: rule, Pos: prog.position(pos), Msg: msg})
				})
			}
		}
	}
	for _, dr := range deepRules {
		if on(dr.name) {
			dr.run(prog, func(d Diagnostic) { out = append(out, d) })
		}
	}

	used := make([]bool, len(opts.Allow))
	kept := out[:0]
	for _, d := range out {
		suppressed := false
		for i, e := range opts.Allow {
			if e.Rule == d.Rule && strings.HasSuffix(d.Pos.Filename, e.PathSuffix) {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	if opts.ReportStale && on("allowstale") {
		allowPath := opts.AllowPath
		if allowPath == "" {
			allowPath = ".mepipe-lint-allow"
		}
		for i, e := range opts.Allow {
			if used[i] || !on(e.Rule) {
				continue
			}
			kept = append(kept, Diagnostic{
				Rule: "allowstale",
				Pos:  token.Position{Filename: allowPath, Line: e.Line, Column: 1},
				Msg: fmt.Sprintf("allowlist entry `%s %s` suppresses nothing; the violation it audited is gone — delete the entry",
					e.Rule, e.PathSuffix),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return kept, nil
}

// expand resolves patterns to package directories under root.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := pat == "..." || strings.HasSuffix(pat, "/...")
		base := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		if base == "" {
			base = "."
		}
		abs := base
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, base)
		}
		if !recursive {
			if hasGoFiles(abs) {
				add(abs)
			}
			continue
		}
		err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != abs {
				name := d.Name()
				if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: expanding %s: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		// An unreadable file counts, so parseDir reports its error.
		if ok, err := isBuiltGoFile(dir, e.Name()); ok || err != nil {
			return true
		}
	}
	return false
}

// fileCtx is the per-file view the per-file rules run on.
type fileCtx struct {
	pf   *progFile
	file *ast.File
}

// pkgPath resolves an identifier to the import path of the package it
// names, or "" when it does not name an imported package.
func (fc *fileCtx) pkgPath(id *ast.Ident) string {
	return fc.pf.pkgPath(id)
}

// isBuiltin reports whether id resolves to a universe builtin. Without
// type information a shadowing declaration cannot be detected, so the
// name is assumed to be the builtin (the conservative direction for a
// forbidding rule).
func (fc *fileCtx) isBuiltin(id *ast.Ident) bool {
	if info := fc.pf.pkg.info; info != nil {
		if obj, ok := info.Uses[id]; ok {
			_, isB := obj.(*types.Builtin)
			return isB
		}
	}
	return true
}
