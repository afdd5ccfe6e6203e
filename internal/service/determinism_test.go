package service

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"chaos/internal/machine"
)

// Pinned fingerprints of load-generator graph variants 0 and 1 at the
// test shape. A fingerprint is a name the server issues for a graph in
// its in-memory cache, so changing the function breaks no client: one
// that kept a name across a restart already gets ErrUnknownGraph and
// re-uploads. What the pin guards is that the function is the same in
// every process and on every architecture — identical uploads from
// unrelated clients must meet under one name.
const (
	pinnedFP0 = Fingerprint(0xa9bb210dea4951b9)
	pinnedFP1 = Fingerprint(0xd14afb4b3da15a23)
)

// TestPinnedFingerprints pins the content-hash function itself.
func TestPinnedFingerprints(t *testing.T) {
	for v, want := range map[int]Fingerprint{0: pinnedFP0, 1: pinnedFP1} {
		e1, e2 := LoadGraph(v, testNNode, testDegree)
		gc := &graphContent{n: testNNode, e1: e1, e2: e2}
		if got := gc.fingerprint(); got != want {
			t.Errorf("variant %d fingerprint = %s, pinned %s", v, got, want)
		}
	}
}

// TestFingerprintSpread checks that the names spread: a small graph,
// every single-edge rewire of it, and every single-word change to its
// coordinates and weights (a sign flip of 0 included) fingerprint
// distinctly and never 0.
func TestFingerprintSpread(t *testing.T) {
	const n = 48
	e1, e2 := LoadGraph(3, n, 4)
	coords := [][]float64{make([]float64, n), make([]float64, n)}
	weights := make([]float64, n)
	for v := 0; v < n; v++ {
		coords[0][v], coords[1][v], weights[v] = float64(v%7), float64(v)/3, 1
	}
	seen := map[Fingerprint]string{}
	name := func(what string, gc *graphContent) {
		t.Helper()
		fp := gc.fingerprint()
		if fp == 0 {
			t.Fatalf("%s fingerprints 0", what)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %s", what, prev, fp)
		}
		seen[fp] = what
	}
	name("bare base", &graphContent{n: n, e1: e1, e2: e2})
	base := &graphContent{n: n, e1: e1, e2: e2, coords: coords, weights: weights}
	name("base", base)
	for i := range e1 {
		for v := 0; v < n; v++ {
			if v == e2[i] {
				continue
			}
			gc := applyDelta(base, []EdgeRewire{{Edge: i, NewEnd: v}})
			name(fmt.Sprintf("rewire %d→%d", i, v), gc)
		}
	}
	for d, col := range append([][]float64{weights}, coords...) {
		for v := range col {
			for _, x := range []float64{math.Copysign(0, -1), col[v] + 0.5, -col[v] - 1} {
				old := col[v]
				col[v] = x
				name(fmt.Sprintf("column %d vertex %d = %g", d, v, x), &graphContent{n: n, e1: e1, e2: e2, coords: coords, weights: weights})
				col[v] = old
			}
		}
	}
}

// TestCacheHitBitIdenticalAcrossBackends pins the determinism
// contract the cache is built on: at a fixed seed, a cold compute of
// the same key is bit-identical across fresh servers AND across
// execution backends — so serving a Simulated-computed cache entry to
// a Real-backend client is sound, and vice versa.
func TestCacheHitBitIdenticalAcrossBackends(t *testing.T) {
	type outcome struct {
		part []int
		cut  int
		fp   Fingerprint
	}
	compute := func(backend machine.Backend) outcome {
		s := New(Options{})
		defer s.Close()
		req := testRequest(0)
		req.Backend = backend
		resp, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if resp.Served != ServedCold {
			t.Fatalf("backend %v: served %v, want cold", backend, resp.Served)
		}
		return outcome{part: resp.Part, cut: resp.Cut, fp: resp.Fingerprint}
	}

	sim := compute(machine.Simulated)
	simAgain := compute(machine.Simulated)
	real := compute(machine.Real)

	if !reflect.DeepEqual(sim, simAgain) {
		t.Fatalf("two cold Simulated computes differ: cut %d vs %d", sim.cut, simAgain.cut)
	}
	if !reflect.DeepEqual(sim.part, real.part) || sim.cut != real.cut {
		t.Fatalf("Simulated and Real backends disagree: cut %d vs %d", sim.cut, real.cut)
	}
	if sim.fp != real.fp {
		t.Fatalf("fingerprints differ across backends: %s vs %s", sim.fp, real.fp)
	}

	// And the cross-backend cache hit: compute under Simulated, then
	// request the same key under Real — the hit must be bit-identical
	// to what a cold Real run would have produced (= sim.part, by the
	// contract just verified).
	s := New(Options{})
	defer s.Close()
	req := testRequest(0)
	req.Backend = machine.Simulated
	if _, err := s.Do(context.Background(), req); err != nil {
		t.Fatalf("seed compute: %v", err)
	}
	realReq := testRequest(0)
	realReq.Backend = machine.Real
	hit, err := s.Do(context.Background(), realReq)
	if err != nil {
		t.Fatalf("cross-backend hit: %v", err)
	}
	if hit.Served != ServedHit || !reflect.DeepEqual(hit.Part, sim.part) {
		t.Fatalf("cross-backend request served %v with identical part=%v, want hit + true",
			hit.Served, reflect.DeepEqual(hit.Part, sim.part))
	}
}

// TestWarmDeterminism pins the warm path the same way: a warm
// repartition of a churned graph is bit-identical across independent
// servers (each doing its own cold run first).
func TestWarmDeterminism(t *testing.T) {
	run := func(backend machine.Backend) []int {
		s := New(Options{})
		defer s.Close()
		req := testRequest(0)
		req.Backend = backend
		cold, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		warm, err := s.Do(context.Background(), &Request{
			NNode: testNNode, NParts: testNParts, Procs: testProcs,
			Spec: testSpec(), Backend: backend,
			Base:  cold.Fingerprint,
			Delta: []EdgeRewire{{Edge: testNNode + 2, NewEnd: 123}},
		})
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		if warm.Served != ServedWarm {
			t.Fatalf("served %v, want warm", warm.Served)
		}
		return warm.Part
	}
	a, b := run(machine.Simulated), run(machine.Simulated)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two warm computes of the same churned key differ")
	}
	if c := run(machine.Real); !reflect.DeepEqual(a, c) {
		t.Fatalf("warm compute differs across backends")
	}
}
