package analysis

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden-file tests load one fixture per analyzer (a package, or
// for testonly three) from testdata/src (skipped by ./... wildcards, so
// `make analyze` never sees the planted violations) and compare the
// diagnostics against "want" comments: every `// want "regex"` must be
// matched by exactly one diagnostic on its line, and no diagnostic may
// lack a want.

func loadTestdata(t *testing.T, names ...string) (*token.FileSet, []*Package) {
	t.Helper()
	patterns := make([]string, len(names))
	for i, name := range names {
		patterns[i] = "./testdata/src/" + name
	}
	fset, pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("Load(%s): %v", names, err)
	}
	return fset, pkgs
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func parseWants(t *testing.T, fset *token.FileSet, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "// want ")
					if i < 0 {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, q := range quotedRe.FindAllString(c.Text[i:], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	return wants
}

func checkGolden(t *testing.T, analyzer, fixture string) {
	t.Helper()
	fset, pkgs := loadTestdata(t, fixture)
	sel, err := ByName(analyzer)
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, fset, pkgs, Run(sel, fset, pkgs))
}

func matchWants(t *testing.T, fset *token.FileSet, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, pkgs)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestSPMDCollectiveGolden(t *testing.T) { checkGolden(t, "spmdcollective", "spmdtest") }
func TestHotAllocGolden(t *testing.T)       { checkGolden(t, "hotalloc", "hottest") }
func TestExchangeErrGolden(t *testing.T)    { checkGolden(t, "exchangeerr", "exchtest") }

// TestTestOnlyGolden loads the onlytest fixture whole (declaring,
// caller and public package) and matches its want comments; the
// reasonless directive is reported on its own line, where a want
// comment cannot sit. A partial load, missing the caller, reports
// nothing rather than flagging every name the caller uses.
func TestTestOnlyGolden(t *testing.T) {
	fset, pkgs := loadTestdata(t, "onlytest/...")
	var diags []Diagnostic
	reasonless := 0
	for _, d := range Run([]*Analyzer{TestOnly}, fset, pkgs) {
		if d.Analyzer == "chaosvet" && strings.Contains(d.Message, "reason is required") {
			reasonless++
			continue
		}
		diags = append(diags, d)
	}
	if reasonless != 1 {
		t.Errorf("got %d reasonless-directive diagnostics, want 1", reasonless)
	}
	matchWants(t, fset, pkgs, diags)

	fset, pkgs = loadTestdata(t, "onlytest/internal/decl", "onlytest/pub")
	for _, d := range Run([]*Analyzer{TestOnly}, fset, pkgs) {
		if d.Analyzer == "testonly" {
			t.Errorf("partial load reported %s", d)
		}
	}
}

// TestSuppression pins the //chaosvet:ignore contract on the suptest
// fixture: two reviewed suppressions silence their diagnostics, and the
// two malformed directives are each reported while suppressing nothing.
func TestSuppression(t *testing.T) {
	fset, pkgs := loadTestdata(t, "suptest")
	sel, err := ByName("spmdcollective")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(sel, fset, pkgs)

	var chaosvet, spmd []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "chaosvet":
			chaosvet = append(chaosvet, d)
		case "spmdcollective":
			spmd = append(spmd, d)
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}

	if len(chaosvet) != 2 {
		t.Fatalf("got %d chaosvet directive diagnostics, want 2: %v", len(chaosvet), chaosvet)
	}
	if !strings.Contains(chaosvet[0].Message, "unknown analyzer") {
		t.Errorf("first directive diagnostic should report the unknown analyzer: %s", chaosvet[0])
	}
	if !strings.Contains(chaosvet[1].Message, "reason is required") {
		t.Errorf("second directive diagnostic should require a reason: %s", chaosvet[1])
	}

	// The barriers under the two malformed directives must still be
	// flagged; the two reviewed suppressions must not.
	if len(spmd) != 2 {
		t.Fatalf("got %d spmdcollective diagnostics, want 2 (malformed directives must not suppress): %v", len(spmd), spmd)
	}
	for _, d := range spmd {
		if d.Pos.Line < chaosvet[0].Pos.Line {
			t.Errorf("diagnostic above the malformed directives can only be an unsuppressed reviewed site: %s", d)
		}
	}
}

// TestDiagnosticString pins the file:line: message [analyzer] shape the
// cmd/chaosvet driver prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "hotalloc",
		Pos:      token.Position{Filename: "kl.go", Line: 69, Column: 13},
		Message:  "make allocates per loop iteration",
	}
	want := "kl.go:69:13: make allocates per loop iteration [hotalloc]"
	if got := d.String(); got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
}

// TestByName pins the -run selection surface of cmd/chaosvet.
func TestByName(t *testing.T) {
	all, err := ByName(" ")
	if err != nil || len(all) != len(All) {
		t.Fatalf("blank list: got %d analyzers, err %v; want all %d", len(all), err, len(All))
	}
	sel, err := ByName("hotalloc, exchangeerr")
	if err != nil || len(sel) != 2 || sel[0].Name != "hotalloc" || sel[1].Name != "exchangeerr" {
		t.Fatalf("subset selection failed: %v %v", sel, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer name must error")
	}
}
