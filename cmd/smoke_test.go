// Package cmd_test keeps the command-line tools that have no tests of
// their own from rotting: it builds them and runs each once.
package cmd_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandsBuildAndRun builds the five binaries no other test
// executes and runs each with its quickest flag: it must exit 0 and
// print something only a working flag set and main would.
func TestCommandsBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five binaries")
	}
	runs := []struct {
		name string
		args []string
		want string
	}{
		{"chaosbench", []string{"-h"}, "-table"},
		{"chaosbench", []string{"-quick", "-table", "1"}, "Table 1"},
		{"chaosd", []string{"-h"}, "-listen"},
		{"chaosc", []string{"-h"}, "-plan"},
		{"chaosvet", []string{"-list"}, "spmdcollective"},
		{"meshgen", []string{"-n", "500"}, "nodes"},
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./chaosbench", "./chaosd", "./chaosc", "./chaosvet", "./meshgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, r := range runs {
		out, err := exec.Command(filepath.Join(bin, r.name), r.args...).CombinedOutput()
		if err != nil {
			t.Errorf("%s %s: %v\n%s", r.name, strings.Join(r.args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), r.want) {
			t.Errorf("%s %s: output lacks %q:\n%s", r.name, strings.Join(r.args, " "), r.want, out)
		}
	}
}
