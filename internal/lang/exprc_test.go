package lang

import (
	"math"
	"testing"

	"chaos/internal/core"
	"chaos/internal/machine"
)

// TestCompiledArithmeticBitExact pins the compiled FORALL arithmetic
// bit for bit: it compiles "X(i) = <expr>" for each operator, each
// builtin, the loop variable and one nested expression with a repeated
// subexpression, runs it on 2 ranks of the zero-cost machine, and
// compares every element's bits with the same Go expression. Each
// operation of the Go side is wrapped in float64(...), so no
// multiply-add is fused. A NaN cannot be assigned (it is the executor's
// untouched sentinel), so the NaN row reduces into the zeroed X
// instead: REDUCE(ADD, X(i), <expr>), whose two additions of zero keep
// the NaN's payload.
func TestCompiledArithmeticBitExact(t *testing.T) {
	const n = 16
	yOf := func(g int) float64 { return float64(float64(0.37*float64(g)) - 1.1) }
	cases := []struct {
		name, expr string
		want       func(i, y float64) float64
	}{
		{"add", "Y(i) + i", func(i, y float64) float64 { return float64(y + i) }},
		{"sub", "Y(i) - i", func(i, y float64) float64 { return float64(y - i) }},
		{"mul", "Y(i) * 1.3", func(i, y float64) float64 { return float64(y * 1.3) }},
		{"div", "Y(i) / 0.7", func(i, y float64) float64 { return float64(y / 0.7) }},
		{"pow", "i ** 1.5", func(i, y float64) float64 { return math.Pow(i, 1.5) }},
		{"square", "Y(i) ** 2", func(i, y float64) float64 { return math.Pow(y, 2) }},
		// Three of these products round twice in Pow (to 53 bits, then
		// to the subnormal's) and so differ from x*x in the last bit.
		{"square subnormal", "(Y(i) * 1.668e-155) ** 2", func(i, y float64) float64 { return math.Pow(float64(y*1.668e-155), 2) }},
		{"square ±0", "(Y(i) * 0) ** 2", func(i, y float64) float64 { return math.Pow(float64(y*0), 2) }},
		{"square ±Inf", "(Y(i) / 0) ** 2", func(i, y float64) float64 { return math.Pow(float64(y/0), 2) }},
		{"square overflow", "(Y(i) * 1e200) ** 2", func(i, y float64) float64 { return math.Pow(float64(y*1e200), 2) }},
		{"square NaN", "(Y(i) / 0 - Y(i) / 0) ** 2", func(i, y float64) float64 {
			inf := float64(y / 0)
			return float64(0 + float64(0+math.Pow(float64(inf-inf), 2)))
		}},
		{"neg", "-Y(i)", func(i, y float64) float64 { return float64(-y) }},
		{"SIN", "SIN(Y(i))", func(i, y float64) float64 { return math.Sin(y) }},
		{"COS", "COS(Y(i))", func(i, y float64) float64 { return math.Cos(y) }},
		{"TAN", "TAN(Y(i))", func(i, y float64) float64 { return math.Tan(y) }},
		{"SQRT", "SQRT(i)", func(i, y float64) float64 { return math.Sqrt(i) }},
		{"ABS", "ABS(Y(i))", func(i, y float64) float64 { return math.Abs(y) }},
		{"EXP", "EXP(Y(i))", func(i, y float64) float64 { return math.Exp(y) }},
		{"LOG", "LOG(i)", func(i, y float64) float64 { return math.Log(i) }},
		{"MIN", "MIN(Y(i), 0.5)", func(i, y float64) float64 { return math.Min(y, 0.5) }},
		{"MAX", "MAX(Y(i), 0.5)", func(i, y float64) float64 { return math.Max(y, 0.5) }},
		{"MOD", "MOD(i, 2.5)", func(i, y float64) float64 { return math.Mod(i, 2.5) }},
		{"loopvar", "i", func(i, y float64) float64 { return i }},
		{"nested", "(0.5*(Y(i)+i))**2 - 0.3*(Y(i)+i) + SIN(Y(i)+i)/(1.5+Y(i)*Y(i))",
			func(i, y float64) float64 {
				s := float64(y + i)
				a := math.Pow(float64(0.5*s), 2)
				b := float64(0.3 * s)
				c := float64(math.Sin(s) / float64(1.5+float64(y*y)))
				return float64(float64(a-b) + c)
			}},
	}
	reduced := map[string]bool{"square NaN": true} // the rows run as REDUCE(ADD, ...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt := "x(i) = " + tc.expr
			if reduced[tc.name] {
				stmt = "REDUCE (ADD, x(i), " + tc.expr + ")"
			}
			prog, err := Compile(`
      PROGRAM arith
      PARAMETER (n = 16)
      REAL*8 x(n), y(n)
      READ y
      FORALL i = 1, n
        ` + stmt + `
      END FORALL
      END
`)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, n)
			seen := make([]bool, n)
			env := &Env{
				RealData: map[string]func(int) float64{"Y": yOf},
				OnFinish: func(_ *core.Session, reals map[string]*core.Array, _ map[string]*core.IntArray) {
					x := reals["X"]
					for k, g := range x.MyGlobals() {
						got[g], seen[g] = x.Data[k], true
					}
				},
			}
			err = machine.Run(machine.Zero(2), func(c *machine.Ctx) {
				if e := prog.Execute(core.NewSession(c), env); e != nil {
					t.Error(e)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for g := range got {
				want := tc.want(float64(g), yOf(g))
				if !seen[g] || math.Float64bits(got[g]) != math.Float64bits(want) {
					t.Errorf("x(%d) = %v (seen %v), want %v bit for bit", g, got[g], seen[g], want)
				}
			}
		})
	}
}
