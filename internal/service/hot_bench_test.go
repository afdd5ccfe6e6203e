package service

import (
	"context"
	"net"
	"testing"

	"chaos/internal/partition"
)

// The service's BenchmarkHot* rows sit on the allocs/op rail (make
// bench-gate) beside the partitioner's: the costs of the daemon's most
// frequent request, a cache hit, on the repository benchmark's
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

// hotChurn uploads the service_mix-shaped graph through do, sends a
// 2 % rewire delta against it once (the compute), and returns that
// churn request, whose every later send is a hit.
func hotChurn(b *testing.B, do func(context.Context, *Request) (*Response, error)) *Request {
	b.Helper()
	ctx := context.Background()
	e1, e2 := LoadGraph(0, hotNodes, hotDegree)
	spec := partition.Spec{Method: partition.MethodMultilevel, Seed: 7}
	up, err := do(ctx, &Request{NNode: hotNodes, NParts: 8, Procs: 4, Spec: spec, E1: e1, E2: e2})
	if err != nil {
		b.Fatal(err)
	}
	delta := make([]EdgeRewire, len(e1)/50)
	for i := range delta {
		delta[i] = EdgeRewire{Edge: (i * 7919) % len(e1), NewEnd: (i * 104729) % hotNodes}
	}
	req := &Request{NNode: hotNodes, NParts: 8, Procs: 4, Spec: spec, Base: up.Fingerprint, Delta: delta}
	if _, err := do(ctx, req); err != nil {
		b.Fatal(err)
	}
	return req
}

// hotRepeat sends req b.N times through do; every answer must be a
// hit.
func hotRepeat(b *testing.B, do func(context.Context, *Request) (*Response, error), req *Request) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := do(ctx, req)
		if err != nil || resp.Served != ServedHit {
			b.Fatalf("served %v, err %v; want a hit", resp.Served, err)
		}
	}
}

// BenchmarkHotCacheHit answers one in-process churn request (a 2 %
// rewire delta against a cached upload) from the cache. The delta
// resolves through the base's derivation memo, so the churned graph is
// neither rebuilt nor fingerprinted, and the key holds the Spec by
// value. Its 3 allocs per hit: Spec.Resolve (1) and the response with
// its part copy (2).
func BenchmarkHotCacheHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	hotRepeat(b, s.Do, hotChurn(b, s.Do))
}

// BenchmarkHotWireChurnHit is the same churn repeat end to end, one
// Client.Do per op over a loopback TCP listener: the request's encode
// (in place, into the client's frame buffer) and decode, the server's
// hit, which writes the entry's stored frame without copying or
// encoding the part vector, and the client's decode of the 4 000-entry
// part vector. Its 7 allocs per hit: the server's request payload (1),
// the decoded request and its delta (2), its method name (1),
// Spec.Resolve (1), and the client's response with its part vector (2).
func BenchmarkHotWireChurnHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	hotRepeat(b, cl.Do, hotChurn(b, cl.Do))
}
