package lang

import (
	"fmt"
	"math"
)

// The FORALL kernel bodies are compiled to a small stack bytecode at
// compile time and interpreted by the executor — this is the "runtime
// compilation" counterpart of the code a real distributed-memory
// compiler would emit inline. The interpretation cost is charged to the
// virtual clock through the loop's flops-per-iteration, so the
// compiler-generated executor is slightly (but only slightly) more
// expensive than a hand-coded kernel, matching the paper's "within
// 10% of the hand parallelized version".

type opcode int

const (
	opConst opcode = iota
	opIn           // push gathered read slot i
	opIter         // push the global iteration number
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opNeg
	opCall // builtin function, argc arguments
)

type instr struct {
	op opcode
	i  int     // read slot (opIn) or argc (opCall)
	f  float64 // constant (opConst)
	fn func(args []float64) float64
}

// builtin describes an intrinsic function.
type builtin struct {
	argc int
	fn   func(args []float64) float64
}

var builtins = map[string]builtin{
	"SIN":  {1, func(a []float64) float64 { return math.Sin(a[0]) }},
	"COS":  {1, func(a []float64) float64 { return math.Cos(a[0]) }},
	"TAN":  {1, func(a []float64) float64 { return math.Tan(a[0]) }},
	"SQRT": {1, func(a []float64) float64 { return math.Sqrt(a[0]) }},
	"ABS":  {1, func(a []float64) float64 { return math.Abs(a[0]) }},
	"EXP":  {1, func(a []float64) float64 { return math.Exp(a[0]) }},
	"LOG":  {1, func(a []float64) float64 { return math.Log(a[0]) }},
	"MIN":  {2, func(a []float64) float64 { return math.Min(a[0], a[1]) }},
	"MAX":  {2, func(a []float64) float64 { return math.Max(a[0], a[1]) }},
	"MOD":  {2, func(a []float64) float64 { return math.Mod(a[0], a[1]) }},
}

// compileProgram runs the post-parse pass over every FORALL: classify
// the accesses into gathered read slots and reduction targets, and
// compile each assignment expression to bytecode.
func compileProgram(p *Program) error {
	var walk func(ss []stmt) error
	walk = func(ss []stmt) error {
		for _, s := range ss {
			switch st := s.(type) {
			case *doStmt:
				if err := walk(st.Body); err != nil {
					return err
				}
			case *forallStmt:
				if err := compileForall(st); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(p.Body)
}

func compileForall(f *forallStmt) error {
	slots := map[arrayRef]int{}
	slotOf := func(r arrayRef) int {
		if i, ok := slots[r]; ok {
			return i
		}
		i := len(f.reads)
		slots[r] = i
		f.reads = append(f.reads, accessRef{ref: r})
		return i
	}
	for ai := range f.Assigns {
		a := &f.Assigns[ai]
		f.writes = append(f.writes, writeRef{ref: a.Target, op: a.Op})
		code, err := compileExpr(a.Expr, slotOf)
		if err != nil {
			return fmt.Errorf("line %d: %w", f.ln, err)
		}
		a.code = code
	}
	return nil
}

// compileExpr lowers an expression tree to bytecode, registering read
// slots through slotOf.
func compileExpr(e expr, slotOf func(arrayRef) int) ([]instr, error) {
	var code []instr
	var emit func(e expr) error
	emit = func(e expr) error {
		switch x := e.(type) {
		case *numExpr:
			code = append(code, instr{op: opConst, f: x.v})
		case *loopVarExpr:
			code = append(code, instr{op: opIter})
		case *refExpr:
			code = append(code, instr{op: opIn, i: slotOf(x.ref)})
		case *unExpr:
			if err := emit(x.x); err != nil {
				return err
			}
			code = append(code, instr{op: opNeg})
		case *binExpr:
			if err := emit(x.l); err != nil {
				return err
			}
			if err := emit(x.r); err != nil {
				return err
			}
			var op opcode
			switch x.op {
			case "+":
				op = opAdd
			case "-":
				op = opSub
			case "*":
				op = opMul
			case "/":
				op = opDiv
			case "**":
				op = opPow
			default:
				return fmt.Errorf("lang: unknown operator %q", x.op)
			}
			code = append(code, instr{op: op})
		case *callExpr:
			for _, a := range x.args {
				if err := emit(a); err != nil {
					return err
				}
			}
			code = append(code, instr{op: opCall, i: len(x.args), fn: builtins[x.name].fn})
		default:
			return fmt.Errorf("lang: unknown expression node %T", e)
		}
		return nil
	}
	if err := emit(e); err != nil {
		return nil, err
	}
	return code, nil
}

// evalCode interprets one assignment's bytecode. stack is a reusable
// scratch buffer with capacity >= codeDepth.
func evalCode(code []instr, iter int, in []float64, stack []float64) float64 {
	sp := 0
	push := func(v float64) {
		stack[sp] = v
		sp++
	}
	for k := range code {
		ins := &code[k]
		switch ins.op {
		case opConst:
			push(ins.f)
		case opIn:
			push(in[ins.i])
		case opIter:
			push(float64(iter))
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			sp--
			stack[sp-1] /= stack[sp]
		case opPow:
			sp--
			stack[sp-1] = math.Pow(stack[sp-1], stack[sp])
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opCall:
			sp -= ins.i
			stack[sp] = ins.fn(stack[sp : sp+ins.i])
			sp++
		}
	}
	return stack[sp-1]
}

// modeledFlops returns the floating-point operation count per
// iteration that compiler-*emitted* code would execute for these
// assignment bodies: every distinct arithmetic subtree counts once
// (the node compiler performs common-subexpression elimination across
// the statements of a FORALL body, exactly as f77 did for the code the
// paper's Fortran 90D compiler generated), and intrinsic calls
// are costed at a small fixed weight. This is what the executor charges
// to the virtual clock; the bytecode interpreter's own (host) overhead
// is a host-side artifact and deliberately not modeled.
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

// codeDepth returns the maximum operand-stack depth of a bytecode
// sequence (for sizing the scratch buffer).
func codeDepth(code []instr) int {
	depth, maxD := 0, 0
	for _, ins := range code {
		switch ins.op {
		case opConst, opIn, opIter:
			depth++
		case opAdd, opSub, opMul, opDiv, opPow:
			depth--
		case opCall:
			depth -= ins.i - 1
		}
		if depth > maxD {
			maxD = depth
		}
	}
	return maxD
}
