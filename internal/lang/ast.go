package lang

import (
	"fmt"
	"strings"

	"chaos/internal/core"
	"chaos/internal/partition"
)

// Program is a compiled source unit: declarations plus an executable
// statement list. It is produced by Compile and executed per rank with
// Execute.
type Program struct {
	Name   string
	Params map[string]int

	// RealArrays / IntArrays map array name to extent.
	RealArrays map[string]int
	IntArrays  map[string]int

	// Decomps maps decomposition name to extent; AlignsTo maps array
	// name to its decomposition.
	Decomps  map[string]int
	AlignsTo map[string]string

	Body []stmt
}

// stmt is one executable statement or directive.
type stmt interface {
	planLine() string
	line() int
}

type baseStmt struct{ ln int }

func (b baseStmt) line() int { return b.ln }

// readStmt pulls array contents from the host environment, standing in
// for Figure 4's "call read_data(end_pt1, end_pt2, ...)".
type readStmt struct {
	baseStmt
	Names []string
}

func (s *readStmt) planLine() string {
	return fmt.Sprintf("READ %s from host environment", strings.Join(s.Names, ", "))
}

// constructStmt is the C$ CONSTRUCT directive.
type constructStmt struct {
	baseStmt
	G        string
	N        int
	Geometry []string // coordinate array names
	Load     string   // weight array name or ""
	Link1    string   // edge endpoint array names or ""
	Link2    string
}

func (s *constructStmt) planLine() string {
	var parts []string
	if len(s.Geometry) > 0 {
		parts = append(parts, fmt.Sprintf("GEOMETRY(%s)", strings.Join(s.Geometry, ",")))
	}
	if s.Load != "" {
		parts = append(parts, fmt.Sprintf("LOAD(%s)", s.Load))
	}
	if s.Link1 != "" {
		parts = append(parts, fmt.Sprintf("LINK(%s,%s)", s.Link1, s.Link2))
	}
	return fmt.Sprintf("K1: call CHAOS to generate GeoCoL %s (n=%d, %s)", s.G, s.N, strings.Join(parts, ", "))
}

// setStmt is the C$ SET map BY PARTITIONING g USING p directive.
type setStmt struct {
	baseStmt
	Map, G, Partitioner string
	// spec is Partitioner parsed at compile time.
	spec partition.Spec
}

func (s *setStmt) planLine() string {
	return fmt.Sprintf("K2/K3: pass GeoCoL %s to %s partitioner, obtain distribution %s", s.G, s.Partitioner, s.Map)
}

// redistributeStmt is the C$ REDISTRIBUTE decomp(map) directive.
type redistributeStmt struct {
	baseStmt
	Decomp, Map string
	// arrays aligned with Decomp, filled by sema.
	arrays []string
}

func (s *redistributeStmt) planLine() string {
	return fmt.Sprintf("K4: remap arrays [%s] aligned with %s to distribution %s",
		strings.Join(s.arrays, ","), s.Decomp, s.Map)
}

// distributeStmt is the executable irregular form of DISTRIBUTE
// (paper Figure 3, statement S7): "DISTRIBUTE irreg(map)" remaps the
// arrays aligned with Decomp onto the distribution given by the
// user-computed INTEGER map array.
type distributeStmt struct {
	baseStmt
	Decomp, MapArr string
	arrays         []string
}

func (s *distributeStmt) planLine() string {
	return fmt.Sprintf("K4: remap arrays [%s] aligned with %s onto user map array %s",
		strings.Join(s.arrays, ","), s.Decomp, s.MapArr)
}

// doStmt is a counted DO loop enclosing statements.
type doStmt struct {
	baseStmt
	Var    string
	Lo, Hi int
	Body   []stmt
}

func (s *doStmt) planLine() string {
	return fmt.Sprintf("DO %s = %d, %d (%d statements)", s.Var, s.Lo, s.Hi, len(s.Body))
}

// forallStmt is an irregular FORALL loop: the unit the inspector/
// executor transformation applies to.
type forallStmt struct {
	baseStmt
	Var     string
	N       int // iterations 1..N
	Assigns []forallAssign

	// reads are the unique gathered reads in slot order, filled by
	// the compile pass.
	reads []arrayRef
}

func (s *forallStmt) planLine() string {
	return fmt.Sprintf("FORALL %s = 1, %d: inspector/executor with %d gathers, %d reductions (schedules cached)",
		s.Var, s.N, len(s.reads), len(s.Assigns))
}

// forallAssign is one statement inside a FORALL:
// either target = expr (Assign) or REDUCE(op, target, expr).
type forallAssign struct {
	Op     core.Reduce
	Target arrayRef
	Expr   expr
	eval   evalFn // Expr compiled, filled by the compile pass
}

// arrayRef is data(index) where index is the loop variable or a
// single-level indirection ind(loopvar).
type arrayRef struct {
	Array string
	Ind   string // "" means direct indexing by the loop variable
}

func (a arrayRef) String() string {
	if a.Ind == "" {
		return a.Array + "(i)"
	}
	return fmt.Sprintf("%s(%s(i))", a.Array, a.Ind)
}

// expr is a parsed expression tree.
type expr interface {
	exprString() string
}

type numExpr struct{ v float64 }

func (e *numExpr) exprString() string { return fmt.Sprintf("%g", e.v) }

type loopVarExpr struct{}

func (e *loopVarExpr) exprString() string { return "i" }

type refExpr struct{ ref arrayRef }

func (e *refExpr) exprString() string { return e.ref.String() }

type binExpr struct {
	op   string
	l, r expr
}

func (e *binExpr) exprString() string {
	return "(" + e.l.exprString() + e.op + e.r.exprString() + ")"
}

type unExpr struct {
	op string
	x  expr
}

func (e *unExpr) exprString() string { return e.op + e.x.exprString() }

type callExpr struct {
	name string
	args []expr
}

func (e *callExpr) exprString() string {
	var as []string
	for _, a := range e.args {
		as = append(as, a.exprString())
	}
	return e.name + "(" + strings.Join(as, ",") + ")"
}

// PlanString renders the generated runtime plan — the compiler
// transformation of the paper's Figure 6 — as readable text.
func (p *Program) PlanString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM %s: compiled CHAOS plan\n", p.Name)
	var walk func(ss []stmt, indent string)
	walk = func(ss []stmt, indent string) {
		for _, s := range ss {
			fmt.Fprintf(&b, "%s%s\n", indent, s.planLine())
			if d, ok := s.(*doStmt); ok {
				walk(d.Body, indent+"  ")
			}
		}
	}
	walk(p.Body, "  ")
	return b.String()
}
