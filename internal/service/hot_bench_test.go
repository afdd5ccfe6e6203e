package service

import (
	"context"
	"testing"

	"chaos/internal/partition"
)

// The service's BenchmarkHot* pair sits on the allocs/op rail (make
// bench-gate) beside the partitioner's: the two costs of the daemon's
// most frequent request, a cache hit, on the repository benchmark's
// service_mix graph shape (4 000 vertices, 12 000 edges).

const hotNodes, hotDegree = 4000, 6

var hotSinkFP Fingerprint

// BenchmarkHotFingerprint names one 12 000-edge upload. It allocates
// nothing.
func BenchmarkHotFingerprint(b *testing.B) {
	e1, e2 := LoadGraph(0, hotNodes, hotDegree)
	gc := &graphContent{n: hotNodes, e1: e1, e2: e2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotSinkFP = gc.fingerprint()
	}
}

// BenchmarkHotCacheHit answers one in-process churn request (a 2 %
// rewire delta against a cached upload) from the cache. Its 10 allocs
// per hit: applyDelta's content struct and e2 copy (2), Spec.Resolve
// (1) and the key's canonical Spec.String (≈ 5), and the response with
// its part copy (2).
func BenchmarkHotCacheHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	e1, e2 := LoadGraph(0, hotNodes, hotDegree)
	spec := partition.Spec{Method: partition.MethodMultilevel, Seed: 7}
	up, err := s.Do(ctx, &Request{NNode: hotNodes, NParts: 8, Procs: 4, Spec: spec, E1: e1, E2: e2})
	if err != nil {
		b.Fatal(err)
	}
	delta := make([]EdgeRewire, len(e1)/50)
	for i := range delta {
		delta[i] = EdgeRewire{Edge: (i * 7919) % len(e1), NewEnd: (i * 104729) % hotNodes}
	}
	req := &Request{NNode: hotNodes, NParts: 8, Procs: 4, Spec: spec, Base: up.Fingerprint, Delta: delta}
	if _, err := s.Do(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Do(ctx, req)
		if err != nil || resp.Served != ServedHit {
			b.Fatalf("served %v, err %v; want a hit", resp.Served, err)
		}
	}
}
