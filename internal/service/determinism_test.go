package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// Pinned fingerprints of load-generator graph variants 0 and 1 at the
// test shape. A fingerprint is a name the server issues for a graph in
// its in-memory cache, so changing the function breaks no client: one
// that kept a name across a restart already gets ErrUnknownGraph and
// re-uploads. What the pin guards is that the function is the same in
// every process and on every architecture — identical uploads from
// unrelated clients must meet under one name.
const (
	pinnedFP0 = Fingerprint(0x4b5f765e6325079c)
	pinnedFP1 = Fingerprint(0x8caade42afe09bfc)
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
// the same edges over one more vertex, and every single-edge rewire of
// it fingerprint distinctly and never 0.
func TestFingerprintSpread(t *testing.T) {
	const n = 48
	e1, e2 := LoadGraph(3, n, 4)
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
	name("one more vertex", &graphContent{n: n + 1, e1: e1, e2: e2})
	base := &graphContent{n: n, e1: e1, e2: e2}
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
}

// TestCacheHitBitIdenticalAcrossServers pins the determinism contract
// the cache is built on: at a fixed seed, a cold compute of the same
// key is bit-identical across fresh servers, and a hit on one server
// serves exactly what the other computed cold.
func TestCacheHitBitIdenticalAcrossServers(t *testing.T) {
	do := func(s *Server, want Served) *Response {
		resp, err := s.Do(context.Background(), testRequest(0))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Served != want {
			t.Fatalf("served %v, want %v", resp.Served, want)
		}
		return resp
	}
	a, b := New(Options{}), New(Options{})
	defer a.Close()
	defer b.Close()
	same := func(x, y *Response) bool {
		return reflect.DeepEqual(x.Part, y.Part) && x.Cut == y.Cut && x.VirtualS == y.VirtualS && x.Fingerprint == y.Fingerprint
	}
	cold := do(a, ServedCold)
	coldAgain := do(b, ServedCold)
	if !same(cold, coldAgain) {
		t.Fatalf("two cold computes differ: cut %d vs %d", cold.Cut, coldAgain.Cut)
	}
	if hit := do(a, ServedHit); !same(hit, coldAgain) {
		t.Fatalf("hit differs from the other server's cold compute: cut %d vs %d", hit.Cut, coldAgain.Cut)
	}
}

// TestWarmDeterminism pins the warm path the same way: a warm
// repartition of a churned graph is bit-identical across independent
// servers (each doing its own cold run first).
func TestWarmDeterminism(t *testing.T) {
	run := func() []int {
		s := New(Options{})
		defer s.Close()
		cold, err := s.Do(context.Background(), testRequest(0))
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		warm, err := s.Do(context.Background(), &Request{
			NNode: testNNode, NParts: testNParts, Procs: testProcs,
			Spec:  testSpec(),
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
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two warm computes of the same churned key differ")
	}
}
