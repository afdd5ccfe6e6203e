// Package analysis is the chaosvet static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// analyzer shape on top of go/ast and go/types, driven by a package
// loader built on `go list -export` (load.go). It exists because the
// repository's SPMD runtime has hard invariants `go vet` cannot see —
// every rank must reach every collective, hot paths must not allocate,
// exchange results must not be dropped, and a runtime path needs a
// non-test caller — and prose in docs/ does not fail CI. Each invariant is one Analyzer in this package; cmd/chaosvet
// runs them all and `make analyze` gates tier-1 on the result.
//
// A diagnostic can be suppressed at a call site that is a reviewed
// false positive with a directive comment on the flagged line or the
// line directly above it:
//
//	//chaosvet:ignore <analyzer> <reason>
//
// The reason is mandatory: an unexplained suppression is itself
// reported. See docs/ANALYZERS.md for the catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked source package under analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's per-expression results.
	Info *types.Info

	// wholeRoot is the import path shared by a load that holds every
	// package under it, "" for a partial load (see TestOnly).
	wholeRoot string
}

// Analyzer is one named invariant check. Run receives every loaded
// package at once (not one package at a time) so checks can collect
// cross-package facts — the "Collective." doc markers live in one
// package while the call sites live in another.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-analyzer view of one load: the packages plus the
// reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// All is the chaosvet analyzer suite, in reporting order.
var All = []*Analyzer{
	SPMDCollective,
	HotAlloc,
	ExchangeErr,
	TestOnly,
}

// ByName returns the analyzers selected by the comma-separated list
// (the -run flag of cmd/chaosvet); an empty list selects All.
func ByName(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All, nil
	}
	var sel []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All {
			if a.Name == name {
				sel = append(sel, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames())
		}
	}
	return sel, nil
}

func analyzerNames() string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// ignoreDirective is one parsed //chaosvet:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
}

const directivePrefix = "//chaosvet:ignore"

// parseDirectives extracts every suppression directive from the loaded
// files, keyed by file name and line. Malformed directives — a missing
// analyzer name, an unknown analyzer name, or an empty reason — are
// reported as diagnostics themselves so suppressions cannot silently
// rot.
func parseDirectives(fset *token.FileSet, pkgs []*Package, report func(Diagnostic)) map[string]map[int][]ignoreDirective {
	dirs := make(map[string]map[int][]ignoreDirective)
	bad := func(pos token.Position, format string, args ...any) {
		report(Diagnostic{Analyzer: "chaosvet", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						bad(pos, "malformed %s: missing analyzer name (want %q)", directivePrefix, directivePrefix+" <analyzer> <reason>")
						continue
					}
					name := fields[0]
					known := false
					for _, a := range All {
						if a.Name == name {
							known = true
							break
						}
					}
					if !known {
						bad(pos, "%s names unknown analyzer %q (have %s)", directivePrefix, name, analyzerNames())
						continue
					}
					if len(fields) < 2 {
						bad(pos, "%s %s: a reason is required, an unexplained suppression is not reviewable", directivePrefix, name)
						continue
					}
					if dirs[pos.Filename] == nil {
						dirs[pos.Filename] = make(map[int][]ignoreDirective)
					}
					d := ignoreDirective{pos: pos, analyzer: name, reason: strings.Join(fields[1:], " ")}
					dirs[pos.Filename][pos.Line] = append(dirs[pos.Filename][pos.Line], d)
				}
			}
		}
	}
	return dirs
}

// suppressed reports whether d is covered by an ignore directive on its
// own line or the line directly above.
func suppressed(d Diagnostic, dirs map[string]map[int][]ignoreDirective) bool {
	lines := dirs[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.analyzer == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// Run executes the analyzers over the loaded packages and returns the
// surviving diagnostics sorted by position. Suppression directives are
// applied here, after every analyzer has reported, so an ignore comment
// behaves identically no matter which analyzer subset runs.
func Run(analyzers []*Analyzer, fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }
	dirs := parseDirectives(fset, pkgs, collect)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Packages: pkgs, report: collect}
		a.Run(pass)
	}
	var out []Diagnostic
	for _, d := range raw {
		if d.Analyzer != "chaosvet" && suppressed(d, dirs) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// --- shared helpers used by the individual analyzers ---

// funcKey names a function or method uniquely across packages:
// "pkgpath.Name" for functions, "pkgpath.Recv.Name" for methods (the
// receiver's named type, pointers stripped).
func funcKey(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if f.Pkg() == nil {
			return f.Name() // builtins such as error.Error
		}
		return f.Pkg().Path() + "." + f.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
}

// declKey is funcKey computed from a source declaration.
func declKey(pkgPath string, d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkgPath + "." + d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic receiver type parameters, not used in this module.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return pkgPath + "." + d.Name.Name
	}
	return pkgPath + "." + id.Name + "." + d.Name.Name
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if f, ok := info.Uses[id].(*types.Func); ok {
		return f
	}
	return nil
}

// docMatches reports whether the declaration's doc comment matches re.
func docMatches(doc *ast.CommentGroup, re *regexp.Regexp) bool {
	return doc != nil && re.MatchString(doc.Text())
}

// docDirective reports whether the doc comment group contains the exact
// directive line (directives such as //chaos:hotpath are excluded from
// CommentGroup.Text, so the raw list is scanned).
func docDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
