// Package lang implements the runtime-compilation front end: a
// miniature Fortran-90D-like language with the paper's irregular
// extensions (DECOMPOSITION / DISTRIBUTE / ALIGN, the CONSTRUCT / SET
// ... BY PARTITIONING ... USING / REDISTRIBUTE mapper-coupling
// directives, and FORALL loops with REDUCE statements), compiled into a
// plan of CHAOS runtime calls — the transformation of the paper's
// Figure 6 — and executed on the simulated machine. Each FORALL body
// compiles to Go closures, one per expression node. The executor calls
// the FORALL's kernel once per step on the local iterations, and the
// kernel, for each of them, gathers the operand row, calls the
// closures and combines their results, as the compiler's emitted loop
// body would run inline.
//
// Errors are typed and have one exit. Compile returns a *lexError
// (line and column) for a scanning problem and a *parseError (line)
// for a failed syntactic or semantic check. Inside the parser a failed
// check panics with its *parseError, and a single deferred recover in
// Compile turns it into the returned error; any other panic is a bug
// and is re-raised. The compile pass after the parser cannot fail —
// the parser has checked every name, operator and argument count — so
// Compile's two error types hold by construction.
package lang

import (
	"fmt"
	"strings"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokPunct // single punctuation: ( ) , = + - * / : and ** as "**"
	tokEOL
)

type token struct {
	kind tokKind
	text string
}

func (t token) String() string {
	if t.kind == tokEOL {
		return "end of line"
	}
	return fmt.Sprintf("%q", t.text)
}

// srcLine is one logical source line with its 1-based line number.
type srcLine struct {
	num  int
	toks []token
}

// lexError reports a scanning problem with position.
type lexError struct {
	line, col int
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.line, e.col, e.msg)
}

// lex splits source text into logical lines of tokens. Fortran-style
// comment lines (leading C/c/! without $) are dropped; `C$` directive
// lines lose their marker and are lexed like code. Keywords are
// case-insensitive; identifiers are upper-cased during scanning.
func lex(src string) ([]srcLine, error) {
	var out []srcLine
	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimLeft(line, " \t")
		if trimmed == "" {
			continue
		}
		switch {
		case strings.HasPrefix(trimmed, "C$") || strings.HasPrefix(trimmed, "c$"):
			trimmed = trimmed[2:]
		case trimmed[0] == '!':
			continue
		case (trimmed[0] == 'C' || trimmed[0] == 'c') && (len(trimmed) == 1 || trimmed[1] == ' ' || trimmed[1] == '\t'):
			continue
		}
		toks, err := lexLine(trimmed, lineNo)
		if err != nil {
			return nil, err
		}
		if len(toks) == 0 {
			continue
		}
		toks = append(toks, token{kind: tokEOL})
		out = append(out, srcLine{num: lineNo, toks: toks})
	}
	return out, nil
}

func lexLine(s string, lineNo int) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '!':
			// Inline comment to end of line.
			return toks, nil
		case isAlpha(c):
			j := i
			for j < len(s) && (isAlpha(s[j]) || isDigit(s[j]) || s[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, strings.ToUpper(s[i:j])})
			i = j
		case isDigit(c) || (c == '.' && i+1 < len(s) && isDigit(s[i+1])):
			j := i
			seenDot, seenExp := false, false
			for j < len(s) {
				ch := s[j]
				if isDigit(ch) {
					j++
					continue
				}
				if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					j++
					continue
				}
				if (ch == 'e' || ch == 'E' || ch == 'd' || ch == 'D') && !seenExp && j+1 < len(s) &&
					(isDigit(s[j+1]) || ((s[j+1] == '+' || s[j+1] == '-') && j+2 < len(s) && isDigit(s[j+2]))) {
					seenExp = true
					j++
					if s[j] == '+' || s[j] == '-' {
						j++
					}
					continue
				}
				break
			}
			txt := strings.Map(func(r rune) rune {
				if r == 'd' || r == 'D' {
					return 'e'
				}
				return r
			}, s[i:j])
			toks = append(toks, token{tokNumber, txt})
			i = j
		case c == '*' && i+1 < len(s) && s[i+1] == '*':
			toks = append(toks, token{tokPunct, "**"})
			i += 2
		case strings.ContainsRune("(),=+-*/:", rune(c)):
			toks = append(toks, token{tokPunct, string(c)})
			i++
		default:
			return nil, &lexError{lineNo, i + 1, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	return toks, nil
}

func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
