package lang

import (
	"strings"
	"testing"

	"chaos/internal/core"
	"chaos/internal/machine"
)

func lexOne(t *testing.T, src string) []token {
	t.Helper()
	lines, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("expected 1 logical line, got %d", len(lines))
	}
	return lines[0].toks
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"42":      "42",
		"3.25":    "3.25",
		"1.5e-3":  "1.5e-3",
		"2E+4":    "2E+4",
		"7.0d0":   "7.0e0", // Fortran double exponent normalized
		"1.25D-2": "1.25e-2",
		".5":      ".5",
	}
	for in, want := range cases {
		toks := lexOne(t, "x = "+in)
		last := toks[len(toks)-2] // before EOL
		if last.kind != tokNumber || last.text != want {
			t.Errorf("lex(%q) last token = %v %q, want number %q", in, last.kind, last.text, want)
		}
	}
}

func TestLexCommentsDropped(t *testing.T) {
	src := "C this is a comment\n! and this\n      REAL*8 x(4)\nc lower case too\n"
	lines, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	if lines[0].toks[0].text != "REAL" {
		t.Errorf("kept line starts with %q", lines[0].toks[0].text)
	}
}

func TestLexInlineComment(t *testing.T) {
	toks := lexOne(t, "x = 1 ! trailing comment")
	// x = 1 EOL -> 4 tokens
	if len(toks) != 4 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
}

func TestLexDirectiveMarked(t *testing.T) {
	lines, err := lex("C$    CONSTRUCT G (4, LOAD(w))\n      END\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0].toks[0].text != "CONSTRUCT" || lines[1].toks[0].text != "END" {
		t.Errorf("C$ line not lexed like code after its marker: %v", lines)
	}
}

func TestLexCaseInsensitiveIdents(t *testing.T) {
	toks := lexOne(t, "forall I_2 = 1, n")
	if toks[0].text != "FORALL" || toks[1].text != "I_2" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexPowerOperator(t *testing.T) {
	toks := lexOne(t, "y = x ** 2 * 3")
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokPunct {
			texts = append(texts, tk.text)
		}
	}
	joined := strings.Join(texts, " ")
	if joined != "= ** *" {
		t.Errorf("punct sequence %q", joined)
	}
}

func TestLexBadCharacterPosition(t *testing.T) {
	_, err := lex("      x = 1 # 2\n")
	if err == nil || !strings.Contains(err.Error(), ":") {
		t.Fatalf("err = %v, want positioned lex error", err)
	}
}

func TestEndDoAndEndForallVariants(t *testing.T) {
	src := `
      PROGRAM v
      PARAMETER (n = 4)
      REAL*8 x(n)
      DO k = 1, 2
        FORALL i = 1, n
          x(i) = 1.0
        ENDFORALL
      ENDDO
      END
`
	if _, err := Compile(src); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDoLoops(t *testing.T) {
	src := `
      PROGRAM v
      PARAMETER (n = 4)
      REAL*8 x(n)
      DO a = 1, 2
        DO b = 1, 3
          FORALL i = 1, n
            x(i) = x(i) + 1.0
          END FORALL
        END DO
      END DO
      END
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// 2*3 = 6 executions accumulate.
	env := &Env{
		OnFinish: func(_ *core.Session, reals map[string]*core.Array, _ map[string]*core.IntArray) {
			x := reals["X"]
			for i := range x.Data {
				if x.Data[i] != 6 {
					t.Errorf("x[%d] = %v, want 6", i, x.Data[i])
				}
			}
		},
	}
	if err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		if e := prog.Execute(core.NewSession(c), env); e != nil {
			t.Error(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinArgCountChecked(t *testing.T) {
	src := `
      PROGRAM v
      PARAMETER (n = 4)
      REAL*8 x(n)
      FORALL i = 1, n
        x(i) = SIN(1.0, 2.0)
      END FORALL
      END
`
	if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "expects 1 argument") {
		t.Fatalf("err = %v", err)
	}
}
