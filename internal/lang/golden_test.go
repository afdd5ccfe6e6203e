package lang

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/compile.golden from the current front end")

// goldenCase is one generated source program and a label saying how it
// was derived from its seed program.
type goldenCase struct {
	label, src string
}

// goldenCorpus derives malformed (and some still valid) programs from
// every program the other tests compile: for each line, the program
// with that line dropped, the programs with each whitespace-separated
// token of it dropped, and three single-character substitutions drawn
// from a fixed-seed generator. Duplicate sources are kept once.
func goldenCorpus(t testing.TB) []goldenCase {
	const alphabet = "()=,+-*/:.!$@ 0189AEIXZ"
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var cases []goldenCase
	add := func(label, src string) {
		if !seen[src] {
			seen[src] = true
			cases = append(cases, goldenCase{label, src})
		}
	}
	for si, seed := range sourceSeeds(t, "figure3_test.go", "lang_test.go", "lexer_test.go") {
		lines := strings.Split(seed, "\n")
		with := func(li int, line string) string {
			out := append([]string(nil), lines...)
			out[li] = line
			return strings.Join(out, "\n")
		}
		for li, line := range lines {
			drop := append(append([]string(nil), lines[:li]...), lines[li+1:]...)
			add(fmt.Sprintf("seed %d line %d: drop line", si, li+1), strings.Join(drop, "\n"))
			fields := strings.Fields(line)
			for fi := range fields {
				kept := append(append([]string(nil), fields[:fi]...), fields[fi+1:]...)
				add(fmt.Sprintf("seed %d line %d: drop token %d", si, li+1, fi+1),
					with(li, "      "+strings.Join(kept, " ")))
			}
			if line == "" {
				continue
			}
			for k := 0; k < 3; k++ {
				col := rng.Intn(len(line))
				c := alphabet[rng.Intn(len(alphabet))]
				add(fmt.Sprintf("seed %d line %d: col %d -> %q", si, li+1, col+1, c),
					with(li, line[:col]+string(c)+line[col+1:]))
			}
		}
	}
	return cases
}

// TestCompileGolden pins the front end's observable behaviour on the
// generated corpus: every error's dynamic type and message, and the
// plan of every program that compiles, must match
// testdata/compile.golden byte for byte. Run with -update to rewrite
// the file after an intended change, and review its diff.
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCorpus(t) {
		fmt.Fprintf(&b, "== %s\n", c.label)
		prog, err := Compile(c.src)
		if err != nil {
			fmt.Fprintf(&b, "%T: %v\n", err, err)
			continue
		}
		b.WriteString(prog.PlanString())
	}
	got := b.String()
	path := filepath.Join("testdata", "compile.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestCompileGolden -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	label := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			label = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d (case %q):\n got  %s\n want %s", path, i+1, label, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
