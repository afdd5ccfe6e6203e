package lang

import "math"

// The FORALL kernel bodies are compiled to Go closures, one per
// expression node, at compile time — the counterpart of the code a
// distributed-memory compiler emits inline into the executor loop
// (paper Figure 6). The executor's virtual-clock charge per iteration
// is modeledFlops, so the compiled body is charged like the emitted
// code, not like the closures that stand in for it.

// evalFn evaluates one compiled expression for global iteration iter
// over the gathered read slots in. It holds no state, so one compiled
// body is shared by every rank.
type evalFn func(iter int, in []float64) float64

// builtin is an intrinsic function, held by arity: exactly one of its
// fields is set.
type builtin struct {
	unary  func(float64) float64
	binary func(float64, float64) float64
}

func (b builtin) argc() int {
	if b.binary != nil {
		return 2
	}
	return 1
}

var builtins = map[string]builtin{
	"SIN":  {unary: math.Sin},
	"COS":  {unary: math.Cos},
	"TAN":  {unary: math.Tan},
	"SQRT": {unary: math.Sqrt},
	"ABS":  {unary: math.Abs},
	"EXP":  {unary: math.Exp},
	"LOG":  {unary: math.Log},
	"MIN":  {binary: math.Min},
	"MAX":  {binary: math.Max},
	"MOD":  {binary: math.Mod},
}

// compileProgram runs the post-parse pass over every FORALL: classify
// the accesses into gathered read slots and compile each assignment
// expression to a closure. The parser has checked every name, operator
// and argument count, so the pass cannot fail.
func compileProgram(ss []stmt) {
	for _, s := range ss {
		switch st := s.(type) {
		case *doStmt:
			compileProgram(st.Body)
		case *forallStmt:
			compileForall(st)
		}
	}
}

func compileForall(f *forallStmt) {
	slots := map[arrayRef]int{}
	slotOf := func(r arrayRef) int {
		if i, ok := slots[r]; ok {
			return i
		}
		i := len(f.reads)
		slots[r] = i
		f.reads = append(f.reads, r)
		return i
	}
	for k := range f.Assigns {
		f.Assigns[k].eval = compileExpr(f.Assigns[k].Expr, slotOf)
	}
}

// compileExpr lowers an expression tree to a closure, registering read
// slots through slotOf. Each node performs its one floating-point
// operation on its operands' values.
func compileExpr(e expr, slotOf func(arrayRef) int) evalFn {
	switch x := e.(type) {
	case *numExpr:
		v := x.v
		return func(int, []float64) float64 { return v }
	case *loopVarExpr:
		return func(iter int, _ []float64) float64 { return float64(iter) }
	case *refExpr:
		k := slotOf(x.ref)
		return func(_ int, in []float64) float64 { return in[k] }
	case *unExpr: // the parser's only unary operator is "-"
		a := compileExpr(x.x, slotOf)
		return func(iter int, in []float64) float64 { return -a(iter, in) }
	case *binExpr:
		l, r := compileExpr(x.l, slotOf), compileExpr(x.r, slotOf)
		switch x.op {
		case "+":
			return func(iter int, in []float64) float64 { return l(iter, in) + r(iter, in) }
		case "-":
			return func(iter int, in []float64) float64 { return l(iter, in) - r(iter, in) }
		case "*":
			return func(iter int, in []float64) float64 { return l(iter, in) * r(iter, in) }
		case "/":
			return func(iter int, in []float64) float64 { return l(iter, in) / r(iter, in) }
		}
		// "**", the parser's only other binary operator.
		if n, ok := x.r.(*numExpr); ok && n.v == 2 {
			return func(iter int, in []float64) float64 { return square(l(iter, in)) }
		}
		return func(iter int, in []float64) float64 { return math.Pow(l(iter, in), r(iter, in)) }
	}
	// A call: the parser has checked its name and argument count.
	c := e.(*callExpr)
	bi := builtins[c.name]
	a := compileExpr(c.args[0], slotOf)
	if f := bi.unary; f != nil {
		return func(iter int, in []float64) float64 { return f(a(iter, in)) }
	}
	f, b := bi.binary, compileExpr(c.args[1], slotOf)
	return func(iter int, in []float64) float64 { return f(a(iter, in), b(iter, in)) }
}

// square is x**2 with exactly math.Pow's bits: x*x where that is a
// finite normal number, which Pow rounds the same way, and Pow itself
// for the rest — zero, a subnormal or infinite product, and NaN, whose
// payload Pow does not keep.
func square(x float64) float64 {
	if p := x * x; p >= 0x1p-1022 && p <= math.MaxFloat64 {
		return p
	}
	return math.Pow(x, 2)
}

// modeledFlops returns the floating-point operation count per
// iteration that compiler-*emitted* code would execute for these
// assignment bodies: every distinct arithmetic subtree counts once
// (the node compiler performs common-subexpression elimination across
// the statements of a FORALL body, exactly as f77 did for the code the
// paper's Fortran 90D compiler generated), and intrinsic calls
// are costed at a small fixed weight. This is what the executor charges
// to the virtual clock; the closures' own (host) call overhead is a
// host-side artifact and deliberately not modeled.
func modeledFlops(assigns []forallAssign) int {
	const callCost = 4
	seen := map[string]bool{}
	count := 0
	var walk func(e expr)
	walk = func(e expr) {
		switch x := e.(type) {
		case *binExpr:
			key := x.exprString()
			if seen[key] {
				return
			}
			seen[key] = true
			count++
			walk(x.l)
			walk(x.r)
		case *unExpr:
			key := x.exprString()
			if seen[key] {
				return
			}
			seen[key] = true
			count++
			walk(x.x)
		case *callExpr:
			key := x.exprString()
			if seen[key] {
				return
			}
			seen[key] = true
			count += callCost
			for _, a := range x.args {
				walk(a)
			}
		}
	}
	for i := range assigns {
		walk(assigns[i].Expr)
		count++ // the store/reduce combine itself
	}
	return count
}
