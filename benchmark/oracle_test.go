package main

import (
	"strings"
	"testing"

	"chaos/internal/mesh"
)

// testRecorder is a recorder with n ops of its only kind on the books.
func testRecorder(n int) *recorder {
	rec := newRecorder(workload{kinds: []string{"k"}}, params{quick: true}, nil)
	for i := 0; i < n; i++ {
		rec.op(0, 1000, 0, false)
	}
	return rec
}

// stripes assigns vertex v of n to part v*nparts/n: a valid, perfectly
// balanced partition of any graph.
func stripes(n, nparts int) []int {
	part := make([]int, n)
	for v := range part {
		part[v] = v * nparts / n
	}
	return part
}

func TestPartitionOracle(t *testing.T) {
	m := mesh.GenerateLattice(6, 6, 6, 7)
	const k = 4
	good := stripes(m.NNode, k)
	trueCut, _ := recount(m.E1, m.E2, good, k)
	if trueCut == 0 {
		t.Fatal("test partition cuts nothing")
	}
	edit := func(f func(p []int)) []int {
		p := append([]int(nil), good...)
		f(p)
		return p
	}
	cases := []struct {
		name     string
		part     []int
		reported int
		wantErr  string // "" = the op passes
	}{
		{"clean, no cut reported", good, -1, ""},
		{"clean, right cut reported", good, trueCut, ""},
		{"wrong reported cut", good, trueCut + 1, "reported cut"},
		{"part id out of range", edit(func(p []int) { p[17] = k }), -1, "assigned to part"},
		{"negative part id", edit(func(p []int) { p[0] = -1 }), -1, "assigned to part"},
		{"vertex missing", good[:len(good)-1], -1, "entries"},
		{"one part swallowed another", edit(func(p []int) {
			for v := range p {
				if p[v] == 1 {
					p[v] = 0
				}
			}
		}), -1, "imbalance"},
	}
	for _, c := range cases {
		rec := testRecorder(3)
		err := rec.judgePartition(0, m.E1, m.E2, c.part, m.NNode, k, 0.05, c.reported)
		switch {
		case c.wantErr == "":
			if err != nil || rec.failed != 0 || rec.cutN[0] != 1 || rec.cutSum[0] != float64(trueCut) {
				t.Errorf("%s: err %v, failed %d, cuts %v/%d; want a pass recording cut %d", c.name, err, rec.failed, rec.cutSum[0], rec.cutN[0], trueCut)
			}
		case err == nil || !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: err %v, want one mentioning %q", c.name, err, c.wantErr)
		case rec.failed != 1 || rec.cutN[0] != 0 || rec.firstFail == "":
			t.Errorf("%s: failed %d, cuts recorded %d, first %q; want the op counted failed and its cut left out", c.name, rec.failed, rec.cutN[0], rec.firstFail)
		}
	}
}

func TestEulerOracle(t *testing.T) {
	m := mesh.GenerateLattice(5, 5, 5, 3)
	x := make([]float64, m.NNode)
	for v := range x {
		x[v] = m.InitialState(v)
	}
	sweep := eulerSweep(m.E1, m.E2, x, mesh.EulerFlux)
	const steps = 40
	y := make([]float64, m.NNode)
	for s := 0; s < steps; s++ { // accumulate like the executor does, not by multiplying
		for v := range y {
			y[v] += sweep[v]
		}
	}

	rec := testRecorder(steps)
	rec.judgeEuler(y, sweep, steps)
	if rec.failed != 0 {
		t.Fatalf("clean y: %d ops failed: %s", rec.failed, rec.firstFail)
	}

	perturbed := append([]float64(nil), y...)
	perturbed[11] *= 1 + 1e-6
	rec = testRecorder(steps)
	rec.judgeEuler(perturbed, sweep, steps)
	if rec.failed != steps || !strings.Contains(rec.firstFail, "y[11]") {
		t.Errorf("y[11] off by 1e-6: failed %d (%q), want all %d ops failed naming y[11]", rec.failed, rec.firstFail, steps)
	}

	rec = testRecorder(steps)
	rec.judgeEuler(y, sweep, steps-1) // a step the executor skipped
	if rec.failed != steps {
		t.Errorf("one step short: failed %d, want %d", rec.failed, steps)
	}
	rec = testRecorder(steps)
	rec.judgeEuler(y[:len(y)-1], sweep, steps)
	if rec.failed != steps {
		t.Errorf("y one entry short: failed %d, want %d", rec.failed, steps)
	}
}
