package lang

import (
	"math"
	"strings"
	"testing"

	"chaos/internal/core"
	"chaos/internal/machine"
)

// eulerSrc is the Figure 4 pattern: implicit mapping via LINK
// connectivity, RSB partitioning, and an edge sweep inside a time loop.
// Dialect note: array indexing is 0-based; FORALL i = 1, N iterates N
// times with i taking values 0..N-1.
const eulerSrc = `
      PROGRAM euler
      PARAMETER (nnode = 36, nedge = 60)
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
      DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
      DISTRIBUTE reg(BLOCK), reg2(BLOCK)
      ALIGN x, y WITH reg
      ALIGN end_pt1, end_pt2 WITH reg2
C     read the mesh from the host (Figure 4: call read_data(...))
      READ end_pt1, end_pt2
      FORALL i = 1, nnode
        x(i) = SIN(0.7*i) + 2.0
        y(i) = 0.0
      END FORALL
C$    CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$    SET distfmt BY PARTITIONING G USING RSB
C$    REDISTRIBUTE reg(distfmt)
      DO iter = 1, 3
        FORALL i = 1, nedge
          REDUCE (ADD, y(end_pt1(i)), (0.5*(x(end_pt1(i))+x(end_pt2(i))))**2 + 0.5*(x(end_pt2(i))-x(end_pt1(i))))
          REDUCE (ADD, y(end_pt2(i)), (0.5*(x(end_pt1(i))+x(end_pt2(i))))**2 - 0.5*(x(end_pt2(i))-x(end_pt1(i))))
        END FORALL
      END DO
      END
`

// grid6x6 produces the edges of a 6x6 grid (60 edges).
func grid6x6() (e1, e2 []int) {
	const gx, gy = 6, 6
	for v := 0; v < gx*gy; v++ {
		x, y := v%gx, v/gx
		if x+1 < gx {
			e1 = append(e1, v)
			e2 = append(e2, v+gx*0+1)
		}
		if y+1 < gy {
			e1 = append(e1, v)
			e2 = append(e2, v+gx)
		}
	}
	return
}

func eulerReference(n int, e1, e2 []int, sweeps int) []float64 {
	xv := make([]float64, n)
	for g := range xv {
		xv[g] = math.Sin(0.7*float64(g)) + 2
	}
	y := make([]float64, n)
	for s := 0; s < sweeps; s++ {
		for i := range e1 {
			a, b := xv[e1[i]], xv[e2[i]]
			avg := 0.5 * (a + b)
			diff := b - a
			y[e1[i]] += avg*avg + 0.5*diff
			y[e2[i]] += avg*avg - 0.5*diff
		}
	}
	return y
}

func TestCompileEuler(t *testing.T) {
	p, err := Compile(eulerSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "EULER" {
		t.Errorf("Name = %q", p.Name)
	}
	if p.RealArrays["X"] != 36 || p.IntArrays["END_PT1"] != 60 {
		t.Error("declarations wrong")
	}
	if p.AlignsTo["X"] != "REG" || p.AlignsTo["END_PT2"] != "REG2" {
		t.Error("alignment wrong")
	}
	plan := p.PlanString()
	for _, want := range []string{"K1", "K2/K3", "K4", "inspector/executor", "RSB"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExecuteEulerMatchesReference(t *testing.T) {
	const p = 4
	prog, err := Compile(eulerSrc)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := grid6x6()
	want := eulerReference(36, e1, e2, 3)
	env := &Env{
		IntData: map[string]func(int) int{
			"END_PT1": func(g int) int { return e1[g] },
			"END_PT2": func(g int) int { return e2[g] },
		},
		OnFinish: func(s *core.Session, reals map[string]*core.Array, _ map[string]*core.IntArray) {
			y := reals["Y"]
			for i, g := range y.MyGlobals() {
				if math.Abs(y.Data[i]-want[g]) > 1e-9*(1+math.Abs(want[g])) {
					t.Errorf("y(%d) = %v, want %v", g, y.Data[i], want[g])
				}
			}
			// Schedule reuse across the DO loop: the edge sweep's
			// inspector must have run exactly once for 3 executions
			// (plus one for each init FORALL statement pair).
			hits, _ := s.Reg.Stats()
			if hits < 2 {
				t.Errorf("expected at least 2 inspector reuse hits, got %d", hits)
			}
		},
	}
	err = machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		s := core.NewSession(c)
		if err := prog.Execute(s, env); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeometryProgram(t *testing.T) {
	// Figure 5 pattern: implicit mapping via GEOMETRY + RCB.
	src := `
      PROGRAM geo
      PARAMETER (n = 16)
      REAL*8 x(n), xc(n), yc(n)
      DECOMPOSITION reg(n)
      DISTRIBUTE reg(BLOCK)
      ALIGN x, xc, yc WITH reg
      READ xc, yc
      FORALL i = 1, n
        x(i) = 1.0
      END FORALL
C$    CONSTRUCT G (n, GEOMETRY(2, xc, yc))
C$    SET fmt BY PARTITIONING G USING RCB
C$    REDISTRIBUTE reg(fmt)
      FORALL i = 1, n
        x(i) = x(i) + i
      END FORALL
      END
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		RealData: map[string]func(int) float64{
			"XC": func(g int) float64 { return float64(g % 4) },
			"YC": func(g int) float64 { return float64(g / 4) },
		},
		OnFinish: func(s *core.Session, reals map[string]*core.Array, _ map[string]*core.IntArray) {
			x := reals["X"]
			if x.DAD().Kind.String() != "IRREGULAR" {
				t.Errorf("x not irregular after REDISTRIBUTE: %v", x.DAD())
			}
			for i, g := range x.MyGlobals() {
				if x.Data[i] != 1+float64(g) {
					t.Errorf("x(%d) = %v, want %v", g, x.Data[i], 1+float64(g))
				}
			}
		},
	}
	err = machine.Run(machine.Zero(4), func(c *machine.Ctx) {
		s := core.NewSession(c)
		if err := prog.Execute(s, env); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExternFunction(t *testing.T) {
	src := `
      PROGRAM md
      PARAMETER (natom = 12, npair = 8)
      REAL*8 q(natom), f(natom), invr2(npair)
      INTEGER p1(npair), p2(npair)
      DECOMPOSITION atoms(natom), pairs(npair)
      DISTRIBUTE atoms(BLOCK), pairs(BLOCK)
      ALIGN q, f WITH atoms
      ALIGN p1, p2, invr2 WITH pairs
      READ p1, p2, q, invr2
      FORALL i = 1, npair
        REDUCE (ADD, f(p1(i)), q(p1(i))*q(p2(i))*invr2(i))
        REDUCE (ADD, f(p2(i)), -q(p1(i))*q(p2(i))*invr2(i))
      END FORALL
      END
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p1 := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p2 := []int{11, 10, 9, 8, 7, 6, 5, 4}
	invr2 := func(g int) float64 { return 1 / float64(g+1) }
	qv := func(g int) float64 { return float64(g%3) - 1 }
	want := make([]float64, 12)
	for i := range p1 {
		fval := qv(p1[i]) * qv(p2[i]) / float64(i+1)
		want[p1[i]] += fval
		want[p2[i]] -= fval
	}
	env := &Env{
		RealData: map[string]func(int) float64{"Q": qv, "INVR2": invr2},
		IntData: map[string]func(int) int{
			"P1": func(g int) int { return p1[g] },
			"P2": func(g int) int { return p2[g] },
		},
		OnFinish: func(_ *core.Session, reals map[string]*core.Array, _ map[string]*core.IntArray) {
			f := reals["F"]
			for i, g := range f.MyGlobals() {
				if math.Abs(f.Data[i]-want[g]) > 1e-12 {
					t.Errorf("f(%d) = %v, want %v", g, f.Data[i], want[g])
				}
			}
		},
	}
	err = machine.Run(machine.Zero(3), func(c *machine.Ctx) {
		if err := prog.Execute(core.NewSession(c), env); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceVariantsParse(t *testing.T) {
	src := `
      PROGRAM r
      PARAMETER (n = 8)
      REAL*8 y(n), x(n)
      INTEGER ia(n)
      DECOMPOSITION d(n)
      DISTRIBUTE d(BLOCK)
      ALIGN y, x WITH d
      READ ia, x
      FORALL i = 1, n
        REDUCE (MAX, y(ia(i)), x(i))
        REDUCE (MIN, y(ia(i)), x(i))
        REDUCE (MUL, y(ia(i)), 1.0 + 0.0*x(i))
      END FORALL
      END
`
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"undeclared array", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      FORALL i = 1, n
        z(i) = 1.0
      END FORALL
      END
`, "undeclared"},
		{"bad reduce op", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      FORALL i = 1, n
        REDUCE (XOR, x(i), 1.0)
      END FORALL
      END
`, "unknown REDUCE"},
		{"misaligned indirection", `
      PROGRAM p
      PARAMETER (n = 4, m = 6)
      REAL*8 x(n)
      INTEGER ia(m)
      FORALL i = 1, n
        x(ia(i)) = 1.0
      END FORALL
      END
`, "not aligned"},
		{"missing end", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
`, "missing END"},
		{"cyclic initial distribute", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      DECOMPOSITION d(n)
      DISTRIBUTE d(CYCLIC)
      END
`, "want BLOCK or an INTEGER map array"},
		{"unknown parameter", `
      PROGRAM p
      REAL*8 x(n)
      END
`, "unknown parameter"},
		{"align extent mismatch", `
      PROGRAM p
      PARAMETER (n = 4, m = 5)
      REAL*8 x(n)
      DECOMPOSITION d(m)
      ALIGN x WITH d
      END
`, "cannot align"},
		{"construct without clause", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
C$    CONSTRUCT G (n)
      END
`, "no GEOMETRY"},
		{"forall lower bound", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      FORALL i = 2, n
        x(i) = 1.0
      END FORALL
      END
`, "lower bound"},
		{"unknown function", `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      FORALL i = 1, n
        x(i) = MYSTERY(i)
      END FORALL
      END
`, "line 6: unknown function MYSTERY"},
		{"unknown spec option", `
      PROGRAM p
      PARAMETER (n = 4, m = 3)
      INTEGER e1(m), e2(m)
C$    CONSTRUCT G (n, LINK(m, e1, e2))
C$    SET fmt BY PARTITIONING G USING MULTILEVEL(Bogus=8)
      END
`, "line 6: partition: unknown spec option"},
		{"bad spec value", `
      PROGRAM p
      PARAMETER (n = 4, m = 3)
      INTEGER e1(m), e2(m)
C$    CONSTRUCT G (n, LINK(m, e1, e2))
C$    SET fmt BY PARTITIONING G USING MULTILEVEL(CoarsenTo=many)
      END
`, "line 6: partition: bad value for spec option coarsento"},
		{"stray character", "      PROGRAM p\n      REAL*8 x(4) @\n      END\n", "unexpected character"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil {
			t.Errorf("%s: compile succeeded, want error containing %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	src := `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      READ x
      END
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		if e := prog.Execute(core.NewSession(c), &Env{}); e == nil ||
			!strings.Contains(e.Error(), "no host RealData binding") {
			t.Errorf("Execute err = %v", e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	src2 := `
      PROGRAM p
      PARAMETER (n = 4)
      REAL*8 x(n)
      DECOMPOSITION d(n)
      DISTRIBUTE d(BLOCK)
      ALIGN x WITH d
C$    REDISTRIBUTE d(nosuchmap)
      END
`
	prog2, err := Compile(src2)
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		if e := prog2.Execute(core.NewSession(c), &Env{}); e == nil ||
			!strings.Contains(e.Error(), "unknown distribution") {
			t.Errorf("Execute err = %v", e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuiltins(t *testing.T) {
	src := `
      PROGRAM b
      PARAMETER (n = 6)
      REAL*8 x(n)
      FORALL i = 1, n
        x(i) = MAX(SIN(i), COS(i)) + SQRT(ABS(i - 2.5)) + MOD(i, 3.0)
      END FORALL
      END
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		OnFinish: func(_ *core.Session, reals map[string]*core.Array, _ map[string]*core.IntArray) {
			x := reals["X"]
			for i, g := range x.MyGlobals() {
				fg := float64(g)
				want := math.Max(math.Sin(fg), math.Cos(fg)) + math.Sqrt(math.Abs(fg-2.5)) + math.Mod(fg, 3)
				if math.Abs(x.Data[i]-want) > 1e-12 {
					t.Errorf("x(%d) = %v, want %v", g, x.Data[i], want)
				}
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
}

func TestEvalCodeOperators(t *testing.T) {
	// Direct check of a compiled expression: 2**3 - 6/2 + (-1) = 8 - 3 - 1 = 4.
	f := &forallStmt{Var: "I", N: 1}
	toks, err := lexLine("2**3 - 6/2 + (-1)", 1)
	if err != nil {
		t.Fatal(err)
	}
	toks = append(toks, token{kind: tokEOL})
	ps := &parser{prog: &Program{Params: map[string]int{}, RealArrays: map[string]int{}, IntArrays: map[string]int{}}}
	ps.lines = []srcLine{{num: 1, toks: toks}}
	ps.toks = toks
	e := ps.parseExpr(f)
	eval := compileExpr(e, func(arrayRef) int { return 0 })
	if got := eval(0, nil); got != 4 {
		t.Errorf("eval = %v, want 4", got)
	}
}

func TestScheduleReuseThroughDoLoop(t *testing.T) {
	prog, err := Compile(eulerSrc)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := grid6x6()
	env := &Env{
		IntData: map[string]func(int) int{
			"END_PT1": func(g int) int { return e1[g] },
			"END_PT2": func(g int) int { return e2[g] },
		},
		OnFinish: func(s *core.Session, _ map[string]*core.Array, _ map[string]*core.IntArray) {
			_, misses := s.Reg.Stats()
			// Misses: init forall (first encounter), edge sweep first
			// encounter after redistribute. The two later sweeps hit.
			if misses > 3 {
				t.Errorf("too many inspector misses: %d", misses)
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
}

// TestSetWithSpecOptions pins the option-list extension of the SET
// directive: a parenthesized key=value list after the partitioner
// name travels into partition.ParseSpec and the partitioner runs with
// it (a bad list is a compile error, see TestParseErrors).
func TestSetWithSpecOptions(t *testing.T) {
	src := `
      PROGRAM specopt
      PARAMETER (n = 36, m = 60)
      REAL*8 x(n)
      INTEGER end_pt1(m), end_pt2(m)
      DYNAMIC, DECOMPOSITION reg(n), reg2(m)
      DISTRIBUTE reg(BLOCK), reg2(BLOCK)
      ALIGN x WITH reg
      ALIGN end_pt1, end_pt2 WITH reg2
      READ end_pt1, end_pt2
      FORALL i = 1, n
        x(i) = 1.0
      END FORALL
C$    CONSTRUCT G (n, LINK(m, end_pt1, end_pt2))
C$    SET distfmt BY PARTITIONING G USING MULTILEVEL(CoarsenTo=8, Seed=7)
C$    REDISTRIBUTE reg(distfmt)
      END
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := grid6x6()
	env := &Env{
		IntData: map[string]func(int) int{
			"END_PT1": func(g int) int { return e1[g] },
			"END_PT2": func(g int) int { return e2[g] },
		},
	}
	err = machine.Run(machine.IPSC860(2), func(c *machine.Ctx) {
		s := core.NewSession(c)
		if err := prog.Execute(s, env); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
