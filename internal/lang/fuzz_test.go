package lang

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strconv"
	"strings"
	"testing"
)

// sourceSeeds returns every Fortran-D program written out in the named
// test files: the string literals that hold a PROGRAM statement.
func sourceSeeds(t testing.TB, files ...string) []string {
	var seeds []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "PROGRAM") {
					seeds = append(seeds, s)
				}
			}
			return true
		})
	}
	if len(seeds) == 0 {
		t.Fatalf("no programs found in %v", files)
	}
	return seeds
}

// FuzzCompile feeds the front end mutations of the programs the other
// tests compile: any source, however malformed, must compile or come
// back as a typed front-end error (*lexError or *parseError), never
// panic, and a compiled program must render its plan.
func FuzzCompile(f *testing.F) {
	for _, src := range sourceSeeds(f, "figure3_test.go", "lang_test.go") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src)
		switch err.(type) {
		case nil:
			_ = prog.PlanString()
		case *lexError, *parseError:
		default:
			t.Fatalf("Compile returned %T (%v), want *lexError or *parseError", err, err)
		}
	})
}
