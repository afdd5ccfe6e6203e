package lang

import (
	"fmt"
	"strconv"

	"chaos/internal/core"
	"chaos/internal/partition"
)

// Compile lexes, parses and semantically checks a source program,
// returning the executable Program (the generated CHAOS plan).
func Compile(src string) (*Program, error) {
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
	if err := ps.parse(); err != nil {
		return nil, err
	}
	if err := compileProgram(ps.prog); err != nil {
		return nil, err
	}
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
func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %s", text, p.peek())
	}
	return nil
}
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.ti++
	return t.text, nil
}
func (p *parser) atEOL() bool { return p.peek().kind == tokEOL }
func (p *parser) expectEOL() error {
	if !p.atEOL() {
		return p.errf("unexpected trailing %s", p.peek())
	}
	return nil
}

// intVal parses an integer literal or parameter reference.
func (p *parser) intVal() (int, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.ti++
		v, err := strconv.Atoi(t.text)
		if err != nil {
			return 0, p.errf("expected integer, found %q", t.text)
		}
		return v, nil
	case tokIdent:
		p.ti++
		v, ok := p.prog.Params[t.text]
		if !ok {
			return 0, p.errf("unknown parameter %q", t.text)
		}
		return v, nil
	default:
		return 0, p.errf("expected integer or parameter, found %s", t)
	}
}

// parse consumes every line.
func (p *parser) parse() error {
	body, err := p.parseBlock(nil)
	if err != nil {
		return err
	}
	p.prog.Body = body
	return nil
}

// parseBlock parses statements until one of the given terminators (or
// end of input when terminators is nil, requiring a final END).
func (p *parser) parseBlock(terminators []string) ([]stmt, error) {
	var body []stmt
	for p.li < len(p.lines) {
		p.toks = p.lines[p.li].toks
		p.ti = 0
		head := p.peek()
		if head.kind == tokIdent {
			for _, term := range terminators {
				if head.text == term {
					return body, nil
				}
			}
		}
		s, err := p.parseLine()
		if err != nil {
			return nil, err
		}
		if s != nil {
			body = append(body, s)
		}
		if s == nil && terminators == nil {
			return body, nil // END of program
		}
	}
	if terminators != nil {
		return nil, p.errf("missing %q", terminators[0])
	}
	return nil, p.errf("missing END")
}

// parseLine parses one statement starting at the current line; returns
// (nil, nil) for the program END.
func (p *parser) parseLine() (stmt, error) {
	ln := p.lines[p.li].num
	kw, err := p.ident()
	if err != nil {
		return nil, err
	}
	adv := func() { p.li++ }
	switch kw {
	case "PROGRAM":
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.prog.Name = name
		adv()
		return p.nextStmt()
	case "PARAMETER":
		if err := p.parseParameter(); err != nil {
			return nil, err
		}
		adv()
		return p.nextStmt()
	case "REAL":
		// REAL*8 decl-list
		if err := p.expect("*"); err != nil {
			return nil, err
		}
		if _, err := p.intVal(); err != nil {
			return nil, err
		}
		if err := p.parseDecls(p.prog.RealArrays, "REAL*8"); err != nil {
			return nil, err
		}
		adv()
		return p.nextStmt()
	case "INTEGER":
		if err := p.parseDecls(p.prog.IntArrays, "INTEGER"); err != nil {
			return nil, err
		}
		adv()
		return p.nextStmt()
	case "DYNAMIC":
		// DYNAMIC, DECOMPOSITION decl-list
		if err := p.expect(","); err != nil {
			return nil, err
		}
		if err := p.expect("DECOMPOSITION"); err != nil {
			return nil, err
		}
		if err := p.parseDecls(p.prog.Decomps, "DECOMPOSITION"); err != nil {
			return nil, err
		}
		adv()
		return p.nextStmt()
	case "DECOMPOSITION":
		if err := p.parseDecls(p.prog.Decomps, "DECOMPOSITION"); err != nil {
			return nil, err
		}
		adv()
		return p.nextStmt()
	case "DISTRIBUTE":
		st, err := p.parseDistribute(ln)
		if err != nil {
			return nil, err
		}
		adv()
		if st != nil {
			return st, nil
		}
		return p.nextStmt()
	case "ALIGN":
		if err := p.parseAlign(); err != nil {
			return nil, err
		}
		adv()
		return p.nextStmt()
	case "READ":
		s := &readStmt{baseStmt: baseStmt{ln}}
		for {
			n, err := p.ident()
			if err != nil {
				return nil, err
			}
			if !p.isArray(n) {
				return nil, p.errf("READ of undeclared array %q", n)
			}
			s.Names = append(s.Names, n)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		adv()
		return s, nil
	case "CONSTRUCT":
		s, err := p.parseConstruct(ln)
		if err != nil {
			return nil, err
		}
		adv()
		return s, nil
	case "SET":
		s, err := p.parseSet(ln)
		if err != nil {
			return nil, err
		}
		adv()
		return s, nil
	case "REDISTRIBUTE":
		s, err := p.parseRedistribute(ln)
		if err != nil {
			return nil, err
		}
		adv()
		return s, nil
	case "DO":
		return p.parseDo(ln)
	case "FORALL":
		return p.parseForall(ln)
	case "END":
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		adv()
		return nil, nil
	default:
		return nil, p.errf("unexpected statement %q", kw)
	}
}

// nextStmt continues parsing after a declaration-type line consumed by
// parseLine.
func (p *parser) nextStmt() (stmt, error) {
	if p.li >= len(p.lines) {
		return nil, p.errf("missing END")
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

func (p *parser) parseParameter() error {
	if err := p.expect("("); err != nil {
		return err
	}
	for {
		n, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		v, err := p.intVal()
		if err != nil {
			return err
		}
		p.prog.Params[n] = v
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	return p.expectEOL()
}

// parseDecls parses name(extent) {, name(extent)} into dst.
func (p *parser) parseDecls(dst map[string]int, what string) error {
	for {
		n, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect("("); err != nil {
			return err
		}
		ext, err := p.intVal()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		if ext < 1 {
			return p.errf("%s %q has extent %d", what, n, ext)
		}
		if _, dup := dst[n]; dup {
			return p.errf("duplicate %s declaration %q", what, n)
		}
		dst[n] = ext
		if !p.accept(",") {
			break
		}
	}
	return p.expectEOL()
}

// parseDistribute handles both declarative BLOCK distributions (the
// default; no code is emitted) and the executable irregular form
// "DISTRIBUTE irreg(map)" of the paper's Figure 3, which remaps the
// arrays aligned with the decomposition according to a user-computed
// map array. The irregular form must be the only item on its line.
func (p *parser) parseDistribute(ln int) (stmt, error) {
	entries := 0
	var irreg *distributeStmt
	for {
		entries++
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, ok := p.prog.Decomps[n]; !ok {
			return nil, p.errf("DISTRIBUTE of undeclared decomposition %q", n)
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		kind, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch {
		case kind == "BLOCK":
			// The default initial distribution; nothing to emit.
		case p.prog.IntArrays[kind] > 0:
			if p.prog.IntArrays[kind] != p.prog.Decomps[n] {
				return nil, p.errf("map array %q (extent %d) does not conform to decomposition %q (extent %d)",
					kind, p.prog.IntArrays[kind], n, p.prog.Decomps[n])
			}
			if irreg != nil {
				return nil, p.errf("one irregular DISTRIBUTE per line")
			}
			irreg = &distributeStmt{baseStmt: baseStmt{ln}, Decomp: n, MapArr: kind}
		default:
			return nil, p.errf("DISTRIBUTE %s(%s): want BLOCK or an INTEGER map array", n, kind)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if !p.accept(",") {
			break
		}
	}
	if irreg != nil && entries > 1 {
		return nil, p.errf("irregular DISTRIBUTE must be the only item on its line")
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	if irreg == nil {
		return nil, nil
	}
	// Resolve the aligned array set (declarations precede use).
	for an, dec := range p.prog.AlignsTo {
		if dec == irreg.Decomp && an != irreg.MapArr {
			irreg.arrays = append(irreg.arrays, an)
		}
	}
	sortStrings(irreg.arrays)
	if len(irreg.arrays) == 0 {
		return nil, p.errf("DISTRIBUTE %s(%s): no arrays aligned with %s", irreg.Decomp, irreg.MapArr, irreg.Decomp)
	}
	return irreg, nil
}

func (p *parser) parseAlign() error {
	var names []string
	for {
		n, err := p.ident()
		if err != nil {
			return err
		}
		if !p.isArray(n) {
			return p.errf("ALIGN of undeclared array %q", n)
		}
		names = append(names, n)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("WITH"); err != nil {
		return err
	}
	d, err := p.ident()
	if err != nil {
		return err
	}
	ext, ok := p.prog.Decomps[d]
	if !ok {
		return p.errf("ALIGN WITH undeclared decomposition %q", d)
	}
	for _, n := range names {
		ne := p.prog.RealArrays[n]
		if ne == 0 {
			ne = p.prog.IntArrays[n]
		}
		if ne != ext {
			return p.errf("array %q (extent %d) cannot align with decomposition %q (extent %d)", n, ne, d, ext)
		}
		p.prog.AlignsTo[n] = d
	}
	return p.expectEOL()
}

func (p *parser) parseConstruct(ln int) (stmt, error) {
	s := &constructStmt{baseStmt: baseStmt{ln}}
	g, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.G = g
	if err := p.expect("("); err != nil {
		return nil, err
	}
	n, err := p.intVal()
	if err != nil {
		return nil, err
	}
	s.N = n
	for p.accept(",") {
		kw, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		switch kw {
		case "GEOMETRY":
			dim, err := p.intVal()
			if err != nil {
				return nil, err
			}
			for d := 0; d < dim; d++ {
				if err := p.expect(","); err != nil {
					return nil, err
				}
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				if p.prog.RealArrays[a] != s.N {
					return nil, p.errf("GEOMETRY array %q must be REAL*8 of extent %d", a, s.N)
				}
				s.Geometry = append(s.Geometry, a)
			}
		case "LOAD":
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.prog.RealArrays[a] != s.N {
				return nil, p.errf("LOAD array %q must be REAL*8 of extent %d", a, s.N)
			}
			s.Load = a
		case "LINK":
			if _, err := p.intVal(); err != nil { // edge count, informational
				return nil, err
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
			a1, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect(","); err != nil {
				return nil, err
			}
			a2, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.prog.IntArrays[a1] == 0 || p.prog.IntArrays[a2] == 0 {
				return nil, p.errf("LINK arrays %q, %q must be INTEGER arrays", a1, a2)
			}
			if p.prog.IntArrays[a1] != p.prog.IntArrays[a2] {
				return nil, p.errf("LINK arrays %q, %q have different extents", a1, a2)
			}
			s.Link1, s.Link2 = a1, a2
		default:
			return nil, p.errf("unknown CONSTRUCT clause %q", kw)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if len(s.Geometry) == 0 && s.Load == "" && s.Link1 == "" {
		return nil, p.errf("CONSTRUCT %q has no GEOMETRY, LOAD or LINK clause", s.G)
	}
	return s, p.expectEOL()
}

func (p *parser) parseSet(ln int) (stmt, error) {
	s := &setStmt{baseStmt: baseStmt{ln}}
	m, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Map = m
	if err := p.expect("BY"); err != nil {
		return nil, err
	}
	if err := p.expect("PARTITIONING"); err != nil {
		return nil, err
	}
	g, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.G = g
	if err := p.expect("USING"); err != nil {
		return nil, err
	}
	// Partitioner names may contain '-' (RSB-KL): IDENT (- IDENT)*.
	pn, err := p.ident()
	if err != nil {
		return nil, err
	}
	for p.accept("-") {
		more, err := p.ident()
		if err != nil {
			return nil, err
		}
		pn += "-" + more
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
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		pn += "(" + body + ")"
	}
	s.Partitioner = pn
	if s.spec, err = partition.ParseSpec(pn); err != nil {
		return nil, &parseError{ln, err.Error()}
	}
	return s, p.expectEOL()
}

func (p *parser) parseRedistribute(ln int) (stmt, error) {
	s := &redistributeStmt{baseStmt: baseStmt{ln}}
	d, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, ok := p.prog.Decomps[d]; !ok {
		return nil, p.errf("REDISTRIBUTE of undeclared decomposition %q", d)
	}
	s.Decomp = d
	if err := p.expect("("); err != nil {
		return nil, err
	}
	m, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Map = m
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	// Resolve the aligned array set now (declarations precede use).
	for n, dec := range p.prog.AlignsTo {
		if dec == d {
			s.arrays = append(s.arrays, n)
		}
	}
	sortStrings(s.arrays)
	return s, p.expectEOL()
}

func (p *parser) parseDo(ln int) (stmt, error) {
	s := &doStmt{baseStmt: baseStmt{ln}}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Var = v
	if err := p.expect("="); err != nil {
		return nil, err
	}
	lo, err := p.intVal()
	if err != nil {
		return nil, err
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	hi, err := p.intVal()
	if err != nil {
		return nil, err
	}
	s.Lo, s.Hi = lo, hi
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	p.li++
	body, err := p.parseBlock([]string{"END", "ENDDO"})
	if err != nil {
		return nil, err
	}
	// Consume END DO / ENDDO.
	p.toks = p.lines[p.li].toks
	p.ti = 0
	kw, _ := p.ident()
	if kw == "END" {
		if err := p.expect("DO"); err != nil {
			return nil, err
		}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	p.li++
	s.Body = body
	return s, nil
}

func (p *parser) parseForall(ln int) (stmt, error) {
	s := &forallStmt{baseStmt: baseStmt{ln}}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Var = v
	if err := p.expect("="); err != nil {
		return nil, err
	}
	lo, err := p.intVal()
	if err != nil {
		return nil, err
	}
	if lo != 1 {
		return nil, p.errf("FORALL lower bound must be 1")
	}
	if err := p.expect(","); err != nil {
		return nil, err
	}
	hi, err := p.intVal()
	if err != nil {
		return nil, err
	}
	if hi < 1 {
		return nil, p.errf("FORALL upper bound %d", hi)
	}
	s.N = hi
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	p.li++
	// Body: assignment / REDUCE lines until END FORALL.
	for {
		if p.li >= len(p.lines) {
			return nil, p.errf("missing END FORALL")
		}
		p.toks = p.lines[p.li].toks
		p.ti = 0
		if p.peek().kind == tokIdent && (p.peek().text == "END" || p.peek().text == "ENDFORALL") {
			kw, _ := p.ident()
			if kw == "END" {
				if err := p.expect("FORALL"); err != nil {
					return nil, err
				}
			}
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			p.li++
			break
		}
		a, err := p.parseForallAssign(s)
		if err != nil {
			return nil, err
		}
		s.Assigns = append(s.Assigns, a)
		p.li++
	}
	if len(s.Assigns) == 0 {
		return nil, p.errf("empty FORALL body")
	}
	return s, nil
}

// parseForallAssign parses `target = expr` or `REDUCE(op, target, expr)`.
func (p *parser) parseForallAssign(f *forallStmt) (forallAssign, error) {
	var a forallAssign
	if p.peek().kind == tokIdent && p.peek().text == "REDUCE" {
		p.ti++
		if err := p.expect("("); err != nil {
			return a, err
		}
		opName, err := p.ident()
		if err != nil {
			return a, err
		}
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
			return a, p.errf("unknown REDUCE operator %q", opName)
		}
		if err := p.expect(","); err != nil {
			return a, err
		}
		ref, err := p.parseArrayRef(f)
		if err != nil {
			return a, err
		}
		a.Target = ref
		if err := p.expect(","); err != nil {
			return a, err
		}
		e, err := p.parseExpr(f)
		if err != nil {
			return a, err
		}
		a.Expr = e
		if err := p.expect(")"); err != nil {
			return a, err
		}
		return a, p.expectEOL()
	}
	ref, err := p.parseArrayRef(f)
	if err != nil {
		return a, err
	}
	a.Op = core.Assign
	a.Target = ref
	if err := p.expect("="); err != nil {
		return a, err
	}
	e, err := p.parseExpr(f)
	if err != nil {
		return a, err
	}
	a.Expr = e
	return a, p.expectEOL()
}

// parseArrayRef parses arr(i) or arr(ind(i)) against forall variable i.
func (p *parser) parseArrayRef(f *forallStmt) (arrayRef, error) {
	var r arrayRef
	name, err := p.ident()
	if err != nil {
		return r, err
	}
	if err := p.expect("("); err != nil {
		return r, err
	}
	inner, err := p.ident()
	if err != nil {
		return r, err
	}
	if inner == f.Var {
		if err := p.expect(")"); err != nil {
			return r, err
		}
		r.Array = name
		return r, p.checkRef(r, f)
	}
	// arr(ind(i))
	if err := p.expect("("); err != nil {
		return r, err
	}
	v, err := p.ident()
	if err != nil {
		return r, err
	}
	if v != f.Var {
		return r, p.errf("indirection %q must be indexed by loop variable %q", inner, f.Var)
	}
	if err := p.expect(")"); err != nil {
		return r, err
	}
	if err := p.expect(")"); err != nil {
		return r, err
	}
	r.Array = name
	r.Ind = inner
	return r, p.checkRef(r, f)
}

func (p *parser) checkRef(r arrayRef, f *forallStmt) error {
	if p.prog.RealArrays[r.Array] == 0 {
		return p.errf("reference to undeclared REAL*8 array %q", r.Array)
	}
	if r.Ind != "" {
		ext := p.prog.IntArrays[r.Ind]
		if ext == 0 {
			return p.errf("indirection array %q is not a declared INTEGER array", r.Ind)
		}
		if ext != f.N {
			return p.errf("indirection array %q (extent %d) not aligned with FORALL extent %d", r.Ind, ext, f.N)
		}
	} else if p.prog.RealArrays[r.Array] != f.N {
		return p.errf("directly indexed array %q (extent %d) not conformant with FORALL extent %d",
			r.Array, p.prog.RealArrays[r.Array], f.N)
	}
	return nil
}

// Expression grammar: expr := term {(+|-) term}; term := factor
// {(*|/) factor}; factor := unary [** factor]; unary := [+|-] primary;
// primary := number | loopvar | param | arrayref | call | (expr).
func (p *parser) parseExpr(f *forallStmt) (expr, error) {
	l, err := p.parseTerm(f)
	if err != nil {
		return nil, err
	}
	for {
		if p.accept("+") {
			r, err := p.parseTerm(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{"+", l, r}
		} else if p.accept("-") {
			r, err := p.parseTerm(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{"-", l, r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseTerm(f *forallStmt) (expr, error) {
	l, err := p.parseFactor(f)
	if err != nil {
		return nil, err
	}
	for {
		if p.accept("*") {
			r, err := p.parseFactor(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{"*", l, r}
		} else if p.accept("/") {
			r, err := p.parseFactor(f)
			if err != nil {
				return nil, err
			}
			l = &binExpr{"/", l, r}
		} else {
			return l, nil
		}
	}
}

func (p *parser) parseFactor(f *forallStmt) (expr, error) {
	l, err := p.parseUnary(f)
	if err != nil {
		return nil, err
	}
	if p.accept("**") {
		r, err := p.parseFactor(f) // right associative
		if err != nil {
			return nil, err
		}
		return &binExpr{"**", l, r}, nil
	}
	return l, nil
}

func (p *parser) parseUnary(f *forallStmt) (expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary(f)
		if err != nil {
			return nil, err
		}
		return &unExpr{"-", x}, nil
	}
	p.accept("+")
	return p.parsePrimary(f)
}

func (p *parser) parsePrimary(f *forallStmt) (expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.ti++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &numExpr{v}, nil
	case tokPunct:
		if t.text == "(" {
			p.ti++
			e, err := p.parseExpr(f)
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		name := t.text
		if name == f.Var {
			p.ti++
			return &loopVarExpr{}, nil
		}
		if v, ok := p.prog.Params[name]; ok {
			p.ti++
			return &numExpr{float64(v)}, nil
		}
		if p.prog.RealArrays[name] > 0 {
			// Re-parse as array reference from the name.
			ref, err := p.parseArrayRef(f)
			if err != nil {
				return nil, err
			}
			return &refExpr{ref}, nil
		}
		// Builtin function call.
		bi, ok := builtins[name]
		if !ok {
			return nil, p.errf("unknown function %s: neither a builtin nor a declared REAL*8 array", name)
		}
		p.ti++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		call := &callExpr{name: name}
		if !p.accept(")") {
			for {
				a, err := p.parseExpr(f)
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		if bi.argc != len(call.args) {
			return nil, p.errf("builtin %s expects %d argument(s), got %d", name, bi.argc, len(call.args))
		}
		return call, nil
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
