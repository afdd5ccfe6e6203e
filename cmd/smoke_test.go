// Package cmd_test keeps the command-line tools that have no tests of
// their own from rotting: it builds them and runs each once.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCommandsBuildAndRun builds the binaries no other test executes
// and runs each with its quickest flag: it must exit with the expected
// code and print something only a working flag set and main would. The
// flags of the retired studies must be the flag package's usage error
// (exit 2), not a silently ignored option.
func TestCommandsBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six binaries")
	}
	const undefined = "flag provided but not defined"
	runs := []struct {
		name string
		args []string
		exit int
		want string
	}{
		{"chaosbench", []string{"-h"}, 0, "-table"},
		{"chaosbench", []string{"-quick", "-table", "1"}, 0, "Table 1"},
		{"chaosbench", []string{"-quick", "-adaptive"}, 0, `"epochs"`},
		{"chaosbench", []string{"-service"}, 2, undefined},
		{"chaosbench", []string{"-stream"}, 2, undefined},
		{"chaosbench", []string{"-backend=real"}, 2, undefined},
		{"benchjson", []string{"-real", "x"}, 2, undefined},
		{"benchjson", []string{"-ns-tol", "2"}, 2, undefined},
		{"chaosd", []string{"-h"}, 0, "-listen"},
		{"chaosc", []string{"-h"}, 0, "-plan"},
		{"chaosvet", []string{"-list"}, 0, "spmdcollective"},
		{"meshgen", []string{"-n", "500"}, 0, "nodes"},
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./chaosbench", "./benchjson", "./chaosd", "./chaosc", "./chaosvet", "./meshgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, r := range runs {
		cmd := exec.Command(filepath.Join(bin, r.name), r.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		line := r.name + " " + strings.Join(r.args, " ")
		if code := cmd.ProcessState.ExitCode(); code != r.exit {
			t.Errorf("%s: exit %d (%v), want %d\n%s%s", line, code, err, r.exit, stdout.Bytes(), stderr.Bytes())
			continue
		}
		if out := stdout.String() + stderr.String(); !strings.Contains(out, r.want) {
			t.Errorf("%s: output lacks %q:\n%s", line, r.want, out)
		}
		if slices.Contains(r.args, "-adaptive") && !json.Valid(stdout.Bytes()) {
			t.Errorf("%s: stdout is not valid JSON:\n%s", line, stdout.Bytes())
		}
	}
}
