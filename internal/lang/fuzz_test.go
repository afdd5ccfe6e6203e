package lang

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math"
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

// FuzzSquare holds the compiled literal "** 2" to math.Pow bit for bit:
// for any float64 operand, NaN payloads, zeros, subnormals, infinities
// and products on either side of the normal range included, the
// closure compileExpr emits returns exactly Pow(x, 2)'s bits.
func FuzzSquare(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1.5, 0x1p-511, 0x1p-512, 0x1.6a09e667f3bcdp-512,
		5e-324, 1e154, 1.3407807929942596e154, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0xfff8000000000000)) // the default NaN of x86 arithmetic
	f.Add(uint64(0x7ff0000000000001)) // a signaling NaN
	// Subnormal products that Pow rounds twice, to a last bit other
	// than x*x's.
	f.Add(uint64(0x1ffafd3a30c1a3ad))
	f.Add(uint64(0x1fef53c77b9b8056))
	sq := compileExpr(&binExpr{op: "**", l: &refExpr{}, r: &numExpr{v: 2}}, func(arrayRef) int { return 0 })
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		got, want := sq(0, []float64{x}), math.Pow(x, 2)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v (%#x) ** 2 = %v (%#x), math.Pow gives %v (%#x)",
				x, bits, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
