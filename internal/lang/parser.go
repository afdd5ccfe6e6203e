package lang

import (
	"fmt"
	"slices"
	"strconv"

	"chaos/internal/core"
	"chaos/internal/partition"
)

// Compile lexes, parses and semantically checks a source program,
// returning the executable Program (the generated CHAOS plan).
//
// Compile is the parser's only error exit: a failed check anywhere in
// the productions below panics with its *parseError, and the deferred
// recover here turns it into the returned error. Any other panic is a
// bug in the front end and is re-raised.
func Compile(src string) (prog *Program, err error) {
	lines, err := lex(src)
	if err != nil {
		return nil, err
	}
	ps := &parser{
		lines: lines,
		prog: &Program{
			Params:     map[string]int{},
			RealArrays: map[string]int{},
			IntArrays:  map[string]int{},
			Decomps:    map[string]int{},
			AlignsTo:   map[string]string{},
		},
	}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parseError)
			if !ok {
				panic(r)
			}
			prog, err = nil, pe
		}
	}()
	// Parse every line; the program ends at its END.
	ps.prog.Body = ps.parseBlock(nil)
	compileProgram(ps.prog.Body)
	return ps.prog, nil
}

type parser struct {
	lines []srcLine
	li    int // current line index
	toks  []token
	ti    int
	prog  *Program
}

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

// errf builds the error for a failed check at the current line; the
// check panics with it (see Compile).
func (p *parser) errf(format string, args ...any) error {
	ln := 0
	if p.li < len(p.lines) {
		ln = p.lines[p.li].num
	} else if len(p.lines) > 0 {
		ln = p.lines[len(p.lines)-1].num
	}
	return &parseError{ln, fmt.Sprintf(format, args...)}
}

// Token helpers operate on the current line.
func (p *parser) peek() token { return p.toks[p.ti] }
func (p *parser) next() token {
	t := p.toks[p.ti]
	if t.kind != tokEOL {
		p.ti++
	}
	return t
}
func (p *parser) accept(text string) bool {
	if p.peek().kind != tokEOL && p.peek().text == text {
		p.ti++
		return true
	}
	return false
}
func (p *parser) expect(text string) {
	if !p.accept(text) {
		panic(p.errf("expected %q, found %s", text, p.peek()))
	}
}
func (p *parser) ident() string {
	t := p.peek()
	if t.kind != tokIdent {
		panic(p.errf("expected identifier, found %s", t))
	}
	p.ti++
	return t.text
}
func (p *parser) atEOL() bool { return p.peek().kind == tokEOL }
func (p *parser) expectEOL() {
	if !p.atEOL() {
		panic(p.errf("unexpected trailing %s", p.peek()))
	}
}

// intVal parses an integer literal or parameter reference.
func (p *parser) intVal() int {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.ti++
		v, err := strconv.Atoi(t.text)
		if err != nil {
			panic(p.errf("expected integer, found %q", t.text))
		}
		return v
	case tokIdent:
		p.ti++
		v, ok := p.prog.Params[t.text]
		if !ok {
			panic(p.errf("unknown parameter %q", t.text))
		}
		return v
	default:
		panic(p.errf("expected integer or parameter, found %s", t))
	}
}

// parseBlock parses statements until one of the given terminators (or
// end of input when terminators is nil, requiring a final END).
func (p *parser) parseBlock(terminators []string) []stmt {
	var body []stmt
	for p.li < len(p.lines) {
		p.toks = p.lines[p.li].toks
		p.ti = 0
		head := p.peek()
		if head.kind == tokIdent && slices.Contains(terminators, head.text) {
			return body
		}
		s := p.parseLine()
		if s != nil {
			body = append(body, s)
		}
		if s == nil && terminators == nil {
			return body // END of program
		}
	}
	if terminators != nil {
		panic(p.errf("missing %q", terminators[0]))
	}
	panic(p.errf("missing END"))
}

// parseLine parses one statement starting at the current line; returns
// nil for the program END.
func (p *parser) parseLine() stmt {
	ln := p.lines[p.li].num
	kw := p.ident()
	adv := func() { p.li++ }
	switch kw {
	case "PROGRAM":
		p.prog.Name = p.ident()
		adv()
		return p.nextStmt()
	case "PARAMETER":
		p.parseParameter()
		adv()
		return p.nextStmt()
	case "REAL":
		// REAL*8 decl-list
		p.expect("*")
		p.intVal()
		p.parseDecls(p.prog.RealArrays, "REAL*8")
		adv()
		return p.nextStmt()
	case "INTEGER":
		p.parseDecls(p.prog.IntArrays, "INTEGER")
		adv()
		return p.nextStmt()
	case "DYNAMIC":
		// DYNAMIC, DECOMPOSITION decl-list
		p.expect(",")
		p.expect("DECOMPOSITION")
		p.parseDecls(p.prog.Decomps, "DECOMPOSITION")
		adv()
		return p.nextStmt()
	case "DECOMPOSITION":
		p.parseDecls(p.prog.Decomps, "DECOMPOSITION")
		adv()
		return p.nextStmt()
	case "DISTRIBUTE":
		st := p.parseDistribute(ln)
		adv()
		if st != nil {
			return st
		}
		return p.nextStmt()
	case "ALIGN":
		p.parseAlign()
		adv()
		return p.nextStmt()
	case "READ":
		s := &readStmt{baseStmt: baseStmt{ln}}
		for {
			n := p.ident()
			if !p.isArray(n) {
				panic(p.errf("READ of undeclared array %q", n))
			}
			s.Names = append(s.Names, n)
			if !p.accept(",") {
				break
			}
		}
		p.expectEOL()
		adv()
		return s
	case "CONSTRUCT":
		s := p.parseConstruct(ln)
		adv()
		return s
	case "SET":
		s := p.parseSet(ln)
		adv()
		return s
	case "REDISTRIBUTE":
		s := p.parseRedistribute(ln)
		adv()
		return s
	case "DO":
		return p.parseDo(ln)
	case "FORALL":
		return p.parseForall(ln)
	case "END":
		p.expectEOL()
		adv()
		return nil
	default:
		panic(p.errf("unexpected statement %q", kw))
	}
}

// nextStmt continues parsing after a declaration-type line consumed by
// parseLine.
func (p *parser) nextStmt() stmt {
	if p.li >= len(p.lines) {
		panic(p.errf("missing END"))
	}
	p.toks = p.lines[p.li].toks
	p.ti = 0
	return p.parseLine()
}

func (p *parser) isArray(n string) bool {
	_, r := p.prog.RealArrays[n]
	_, i := p.prog.IntArrays[n]
	return r || i
}

func (p *parser) parseParameter() {
	p.expect("(")
	for {
		n := p.ident()
		p.expect("=")
		p.prog.Params[n] = p.intVal()
		if !p.accept(",") {
			break
		}
	}
	p.expect(")")
	p.expectEOL()
}

// parseDecls parses name(extent) {, name(extent)} into dst.
func (p *parser) parseDecls(dst map[string]int, what string) {
	for {
		n := p.ident()
		p.expect("(")
		ext := p.intVal()
		p.expect(")")
		if ext < 1 {
			panic(p.errf("%s %q has extent %d", what, n, ext))
		}
		if _, dup := dst[n]; dup {
			panic(p.errf("duplicate %s declaration %q", what, n))
		}
		dst[n] = ext
		if !p.accept(",") {
			break
		}
	}
	p.expectEOL()
}

// parseDistribute handles both declarative BLOCK distributions (the
// default; no code is emitted) and the executable irregular form
// "DISTRIBUTE irreg(map)" of the paper's Figure 3, which remaps the
// arrays aligned with the decomposition according to a user-computed
// map array. The irregular form must be the only item on its line.
func (p *parser) parseDistribute(ln int) stmt {
	entries := 0
	var irreg *distributeStmt
	for {
		entries++
		n := p.ident()
		if _, ok := p.prog.Decomps[n]; !ok {
			panic(p.errf("DISTRIBUTE of undeclared decomposition %q", n))
		}
		p.expect("(")
		kind := p.ident()
		switch {
		case kind == "BLOCK":
			// The default initial distribution; nothing to emit.
		case p.prog.IntArrays[kind] > 0:
			if p.prog.IntArrays[kind] != p.prog.Decomps[n] {
				panic(p.errf("map array %q (extent %d) does not conform to decomposition %q (extent %d)",
					kind, p.prog.IntArrays[kind], n, p.prog.Decomps[n]))
			}
			if irreg != nil {
				panic(p.errf("one irregular DISTRIBUTE per line"))
			}
			irreg = &distributeStmt{baseStmt: baseStmt{ln}, Decomp: n, MapArr: kind}
		default:
			panic(p.errf("DISTRIBUTE %s(%s): want BLOCK or an INTEGER map array", n, kind))
		}
		p.expect(")")
		if !p.accept(",") {
			break
		}
	}
	if irreg != nil && entries > 1 {
		panic(p.errf("irregular DISTRIBUTE must be the only item on its line"))
	}
	p.expectEOL()
	if irreg == nil {
		return nil
	}
	// Resolve the aligned array set (declarations precede use).
	for an, dec := range p.prog.AlignsTo {
		if dec == irreg.Decomp && an != irreg.MapArr {
			irreg.arrays = append(irreg.arrays, an)
		}
	}
	slices.Sort(irreg.arrays)
	if len(irreg.arrays) == 0 {
		panic(p.errf("DISTRIBUTE %s(%s): no arrays aligned with %s", irreg.Decomp, irreg.MapArr, irreg.Decomp))
	}
	return irreg
}

func (p *parser) parseAlign() {
	var names []string
	for {
		n := p.ident()
		if !p.isArray(n) {
			panic(p.errf("ALIGN of undeclared array %q", n))
		}
		names = append(names, n)
		if !p.accept(",") {
			break
		}
	}
	p.expect("WITH")
	d := p.ident()
	ext, ok := p.prog.Decomps[d]
	if !ok {
		panic(p.errf("ALIGN WITH undeclared decomposition %q", d))
	}
	for _, n := range names {
		ne := p.prog.RealArrays[n]
		if ne == 0 {
			ne = p.prog.IntArrays[n]
		}
		if ne != ext {
			panic(p.errf("array %q (extent %d) cannot align with decomposition %q (extent %d)", n, ne, d, ext))
		}
		p.prog.AlignsTo[n] = d
	}
	p.expectEOL()
}

func (p *parser) parseConstruct(ln int) stmt {
	s := &constructStmt{baseStmt: baseStmt{ln}}
	s.G = p.ident()
	p.expect("(")
	s.N = p.intVal()
	for p.accept(",") {
		kw := p.ident()
		p.expect("(")
		switch kw {
		case "GEOMETRY":
			dim := p.intVal()
			for d := 0; d < dim; d++ {
				p.expect(",")
				a := p.ident()
				if p.prog.RealArrays[a] != s.N {
					panic(p.errf("GEOMETRY array %q must be REAL*8 of extent %d", a, s.N))
				}
				s.Geometry = append(s.Geometry, a)
			}
		case "LOAD":
			a := p.ident()
			if p.prog.RealArrays[a] != s.N {
				panic(p.errf("LOAD array %q must be REAL*8 of extent %d", a, s.N))
			}
			s.Load = a
		case "LINK":
			p.intVal() // edge count, informational
			p.expect(",")
			a1 := p.ident()
			p.expect(",")
			a2 := p.ident()
			if p.prog.IntArrays[a1] == 0 || p.prog.IntArrays[a2] == 0 {
				panic(p.errf("LINK arrays %q, %q must be INTEGER arrays", a1, a2))
			}
			if p.prog.IntArrays[a1] != p.prog.IntArrays[a2] {
				panic(p.errf("LINK arrays %q, %q have different extents", a1, a2))
			}
			s.Link1, s.Link2 = a1, a2
		default:
			panic(p.errf("unknown CONSTRUCT clause %q", kw))
		}
		p.expect(")")
	}
	p.expect(")")
	if len(s.Geometry) == 0 && s.Load == "" && s.Link1 == "" {
		panic(p.errf("CONSTRUCT %q has no GEOMETRY, LOAD or LINK clause", s.G))
	}
	p.expectEOL()
	return s
}

func (p *parser) parseSet(ln int) stmt {
	s := &setStmt{baseStmt: baseStmt{ln}}
	s.Map = p.ident()
	p.expect("BY")
	p.expect("PARTITIONING")
	s.G = p.ident()
	p.expect("USING")
	// Partitioner names may contain '-' (a registered "MY-PART"):
	// IDENT (- IDENT)*.
	pn := p.ident()
	for p.accept("-") {
		pn += "-" + p.ident()
	}
	// An optional parenthesized option list — USING MULTILEVEL
	// (CoarsenTo=200, Seed=7) — is part of the spec string, which
	// partition.ParseSpec checks here, so a misspelled key or a bad
	// value is a compile error rather than a failure on every rank.
	if p.accept("(") {
		body := ""
		for !p.atEOL() && p.peek().text != ")" {
			body += p.next().text
		}
		p.expect(")")
		pn += "(" + body + ")"
	}
	s.Partitioner = pn
	var err error
	if s.spec, err = partition.ParseSpec(pn); err != nil {
		panic(&parseError{ln, err.Error()})
	}
	p.expectEOL()
	return s
}

func (p *parser) parseRedistribute(ln int) stmt {
	s := &redistributeStmt{baseStmt: baseStmt{ln}}
	d := p.ident()
	if _, ok := p.prog.Decomps[d]; !ok {
		panic(p.errf("REDISTRIBUTE of undeclared decomposition %q", d))
	}
	s.Decomp = d
	p.expect("(")
	s.Map = p.ident()
	p.expect(")")
	// Resolve the aligned array set now (declarations precede use).
	for n, dec := range p.prog.AlignsTo {
		if dec == d {
			s.arrays = append(s.arrays, n)
		}
	}
	slices.Sort(s.arrays)
	p.expectEOL()
	return s
}

func (p *parser) parseDo(ln int) stmt {
	s := &doStmt{baseStmt: baseStmt{ln}}
	s.Var = p.ident()
	p.expect("=")
	s.Lo = p.intVal()
	p.expect(",")
	s.Hi = p.intVal()
	p.expectEOL()
	p.li++
	s.Body = p.parseBlock([]string{"END", "ENDDO"})
	// Consume END DO / ENDDO.
	p.toks = p.lines[p.li].toks
	p.ti = 0
	if p.ident() == "END" {
		p.expect("DO")
	}
	p.expectEOL()
	p.li++
	return s
}

func (p *parser) parseForall(ln int) stmt {
	s := &forallStmt{baseStmt: baseStmt{ln}}
	s.Var = p.ident()
	p.expect("=")
	if p.intVal() != 1 {
		panic(p.errf("FORALL lower bound must be 1"))
	}
	p.expect(",")
	hi := p.intVal()
	if hi < 1 {
		panic(p.errf("FORALL upper bound %d", hi))
	}
	s.N = hi
	p.expectEOL()
	p.li++
	// Body: assignment / REDUCE lines until END FORALL.
	for {
		if p.li >= len(p.lines) {
			panic(p.errf("missing END FORALL"))
		}
		p.toks = p.lines[p.li].toks
		p.ti = 0
		if p.peek().kind == tokIdent && (p.peek().text == "END" || p.peek().text == "ENDFORALL") {
			if p.ident() == "END" {
				p.expect("FORALL")
			}
			p.expectEOL()
			p.li++
			break
		}
		s.Assigns = append(s.Assigns, p.parseForallAssign(s))
		p.li++
	}
	if len(s.Assigns) == 0 {
		panic(p.errf("empty FORALL body"))
	}
	return s
}

// parseForallAssign parses `target = expr` or `REDUCE(op, target, expr)`.
func (p *parser) parseForallAssign(f *forallStmt) forallAssign {
	var a forallAssign
	if p.peek().kind == tokIdent && p.peek().text == "REDUCE" {
		p.ti++
		p.expect("(")
		opName := p.ident()
		switch opName {
		case "ADD", "SUM":
			a.Op = core.Add
		case "MAX":
			a.Op = core.Max
		case "MIN":
			a.Op = core.Min
		case "MUL", "MULT", "PROD":
			a.Op = core.Mul
		default:
			panic(p.errf("unknown REDUCE operator %q", opName))
		}
		p.expect(",")
		a.Target = p.parseArrayRef(f)
		p.expect(",")
		a.Expr = p.parseExpr(f)
		p.expect(")")
		p.expectEOL()
		return a
	}
	a.Target = p.parseArrayRef(f)
	a.Op = core.Assign
	p.expect("=")
	a.Expr = p.parseExpr(f)
	p.expectEOL()
	return a
}

// parseArrayRef parses arr(i) or arr(ind(i)) against forall variable i.
func (p *parser) parseArrayRef(f *forallStmt) arrayRef {
	var r arrayRef
	name := p.ident()
	p.expect("(")
	inner := p.ident()
	if inner == f.Var {
		p.expect(")")
		r.Array = name
		p.checkRef(r, f)
		return r
	}
	// arr(ind(i))
	p.expect("(")
	if v := p.ident(); v != f.Var {
		panic(p.errf("indirection %q must be indexed by loop variable %q", inner, f.Var))
	}
	p.expect(")")
	p.expect(")")
	r.Array = name
	r.Ind = inner
	p.checkRef(r, f)
	return r
}

func (p *parser) checkRef(r arrayRef, f *forallStmt) {
	if p.prog.RealArrays[r.Array] == 0 {
		panic(p.errf("reference to undeclared REAL*8 array %q", r.Array))
	}
	if r.Ind != "" {
		ext := p.prog.IntArrays[r.Ind]
		if ext == 0 {
			panic(p.errf("indirection array %q is not a declared INTEGER array", r.Ind))
		}
		if ext != f.N {
			panic(p.errf("indirection array %q (extent %d) not aligned with FORALL extent %d", r.Ind, ext, f.N))
		}
	} else if p.prog.RealArrays[r.Array] != f.N {
		panic(p.errf("directly indexed array %q (extent %d) not conformant with FORALL extent %d",
			r.Array, p.prog.RealArrays[r.Array], f.N))
	}
}

// Expression grammar: expr := term {(+|-) term}; term := factor
// {(*|/) factor}; factor := unary [** factor]; unary := [+|-] primary;
// primary := number | loopvar | param | arrayref | call | (expr).
func (p *parser) parseExpr(f *forallStmt) expr {
	l := p.parseTerm(f)
	for {
		if p.accept("+") {
			l = &binExpr{"+", l, p.parseTerm(f)}
		} else if p.accept("-") {
			l = &binExpr{"-", l, p.parseTerm(f)}
		} else {
			return l
		}
	}
}

func (p *parser) parseTerm(f *forallStmt) expr {
	l := p.parseFactor(f)
	for {
		if p.accept("*") {
			l = &binExpr{"*", l, p.parseFactor(f)}
		} else if p.accept("/") {
			l = &binExpr{"/", l, p.parseFactor(f)}
		} else {
			return l
		}
	}
}

func (p *parser) parseFactor(f *forallStmt) expr {
	l := p.parseUnary(f)
	if p.accept("**") {
		return &binExpr{"**", l, p.parseFactor(f)} // right associative
	}
	return l
}

func (p *parser) parseUnary(f *forallStmt) expr {
	if p.accept("-") {
		return &unExpr{"-", p.parseUnary(f)}
	}
	p.accept("+")
	return p.parsePrimary(f)
}

func (p *parser) parsePrimary(f *forallStmt) expr {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.ti++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			panic(p.errf("bad number %q", t.text))
		}
		return &numExpr{v}
	case tokPunct:
		if t.text == "(" {
			p.ti++
			e := p.parseExpr(f)
			p.expect(")")
			return e
		}
	case tokIdent:
		name := t.text
		if name == f.Var {
			p.ti++
			return &loopVarExpr{}
		}
		if v, ok := p.prog.Params[name]; ok {
			p.ti++
			return &numExpr{float64(v)}
		}
		if p.prog.RealArrays[name] > 0 {
			// Re-parse as array reference from the name.
			return &refExpr{p.parseArrayRef(f)}
		}
		// Builtin function call.
		bi, ok := builtins[name]
		if !ok {
			panic(p.errf("unknown function %s: neither a builtin nor a declared REAL*8 array", name))
		}
		p.ti++
		p.expect("(")
		call := &callExpr{name: name}
		if !p.accept(")") {
			for {
				call.args = append(call.args, p.parseExpr(f))
				if !p.accept(",") {
					break
				}
			}
			p.expect(")")
		}
		if bi.argc() != len(call.args) {
			panic(p.errf("builtin %s expects %d argument(s), got %d", name, bi.argc(), len(call.args)))
		}
		return call
	}
	panic(p.errf("unexpected token %s in expression", t))
}
