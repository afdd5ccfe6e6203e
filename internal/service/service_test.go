package service

import (
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"chaos/internal/partition"
)

// testSpec is sized so a few-hundred-vertex graph takes the
// distributed MULTILEVEL path (ladder retained) at procs >= 2:
// serialTo = max(8*CoarsenTo, ParallelThreshold) = 192 < testNNode.
func testSpec() partition.Spec {
	return partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 24, ParallelThreshold: 96, Seed: 42}
}

const (
	testNNode  = 400
	testDegree = 6
	testNParts = 4
	testProcs  = 2
)

func testRequest(variant int) *Request {
	e1, e2 := LoadGraph(variant, testNNode, testDegree)
	return &Request{
		NNode:  testNNode,
		NParts: testNParts,
		Procs:  testProcs,
		Spec:   testSpec(),
		E1:     e1,
		E2:     e2,
	}
}

func checkPartition(t *testing.T, resp *Response, req *Request) {
	t.Helper()
	if len(resp.Part) != req.NNode {
		t.Fatalf("part vector has %d entries, want %d", len(resp.Part), req.NNode)
	}
	for i, p := range resp.Part {
		if p < 0 || p >= req.NParts {
			t.Fatalf("part[%d] = %d out of range [0, %d)", i, p, req.NParts)
		}
	}
	// The response's cut must be the real cut of the returned vector
	// over the request's edges, not a stale cached figure.
	e1, e2 := req.E1, req.E2
	if got := partition.EdgeListCut(e1, e2, resp.Part); got != resp.Cut {
		t.Fatalf("response cut %d, recomputed %d", resp.Cut, got)
	}
}

// TestServedLifecycle walks one graph through the service economy:
// cold compute, then a cache hit (bit-identical), then a churn delta
// answered warm off the retained ladder, then a hit on the churned
// result.
func TestServedLifecycle(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ctx := context.Background()

	req := testRequest(0)
	cold, err := s.Do(ctx, req)
	if err != nil {
		t.Fatalf("cold Do: %v", err)
	}
	if cold.Served != ServedCold {
		t.Fatalf("first compute served %v, want %v", cold.Served, ServedCold)
	}
	checkPartition(t, cold, req)

	hit, err := s.Do(ctx, testRequest(0))
	if err != nil {
		t.Fatalf("hit Do: %v", err)
	}
	if hit.Served != ServedHit {
		t.Fatalf("second compute served %v, want %v", hit.Served, ServedHit)
	}
	if !reflect.DeepEqual(hit.Part, cold.Part) || hit.Cut != cold.Cut || hit.Fingerprint != cold.Fingerprint {
		t.Fatalf("cache hit is not bit-identical to the cold compute")
	}

	// Churn: rewire a handful of chord edges by fingerprint + delta.
	delta := []EdgeRewire{{Edge: testNNode + 1, NewEnd: 7}, {Edge: testNNode + 3, NewEnd: 211}}
	warmReq := &Request{
		NNode:  testNNode,
		NParts: testNParts,
		Procs:  testProcs,
		Spec:   testSpec(),
		Base:   cold.Fingerprint,
		Delta:  delta,
	}
	warm, err := s.Do(ctx, warmReq)
	if err != nil {
		t.Fatalf("warm Do: %v", err)
	}
	if warm.Served != ServedWarm {
		t.Fatalf("delta compute served %v, want %v", warm.Served, ServedWarm)
	}
	if warm.Fingerprint == cold.Fingerprint {
		t.Fatalf("churned graph kept the base fingerprint %s", cold.Fingerprint)
	}
	// Verify against the materialized churned edges.
	e1, e2 := LoadGraph(0, testNNode, testDegree)
	for _, d := range delta {
		e2[d.Edge] = d.NewEnd
	}
	checkPartition(t, warm, &Request{NNode: testNNode, NParts: testNParts, E1: e1, E2: e2})

	again, err := s.Do(ctx, warmReq)
	if err != nil {
		t.Fatalf("churned hit Do: %v", err)
	}
	if again.Served != ServedHit || !reflect.DeepEqual(again.Part, warm.Part) {
		t.Fatalf("repeat delta request served %v, want bit-identical %v", again.Served, ServedHit)
	}

	m := s.Metrics()
	if m.Cold != 1 || m.Warm != 1 || m.Hits != 2 {
		t.Fatalf("metrics cold=%d warm=%d hits=%d, want 1/1/2", m.Cold, m.Warm, m.Hits)
	}
}

// TestDeltaUnknownBase pins the typed re-upload signal: a delta
// against a fingerprint the cache does not hold must come back
// ErrUnknownGraph, not a silent cold compute.
func TestDeltaUnknownBase(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	_, err := s.Do(context.Background(), &Request{
		NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(),
		Base: 0xdeadbeef, Delta: []EdgeRewire{{Edge: 0, NewEnd: 1}},
	})
	if !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("delta against unknown base: err = %v, want ErrUnknownGraph", err)
	}
}

// TestBadRequests sweeps the validation surface: every malformed
// request is rejected with ErrBadRequest before any compute.
func TestBadRequests(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	base := testRequest(0)

	mut := func(f func(*Request)) *Request {
		r := *base
		f(&r)
		return &r
	}
	cases := map[string]*Request{
		"zero vertices":    mut(func(r *Request) { r.NNode = 0 }),
		"zero parts":       mut(func(r *Request) { r.NParts = 0 }),
		"negative procs":   mut(func(r *Request) { r.Procs = -1 }),
		"huge procs":       mut(func(r *Request) { r.Procs = 1 << 20 }),
		"unknown method":   mut(func(r *Request) { r.Spec = partition.Spec{Method: "VOODOO"} }),
		"retired method":   mut(func(r *Request) { r.Spec = partition.Spec{Method: "KL"} }),
		"ragged edges":     mut(func(r *Request) { r.E2 = r.E2[:len(r.E2)-1] }),
		"edge out of rng":  mut(func(r *Request) { e := append([]int(nil), r.E1...); e[0] = r.NNode; r.E1 = e }),
		"upload and delta": mut(func(r *Request) { r.Delta = []EdgeRewire{{Edge: 0, NewEnd: 1}} }),
		"empty request":    {NNode: 4, NParts: 2, Spec: testSpec()},
		"needs geometry":   mut(func(r *Request) { r.Spec = partition.Spec{Method: partition.MethodRCB} }),
	}
	// The codec carries a negative CoarsenTo unchanged, so admission is
	// what must reject it.
	wired, err := decodeRequest(encodeRequest(mut(func(r *Request) { r.Spec.CoarsenTo = -1 })))
	if err != nil || wired.Spec.CoarsenTo != -1 {
		t.Fatalf("codec round trip: CoarsenTo %d, err %v", wired.Spec.CoarsenTo, err)
	}
	cases["wire CoarsenTo -1"] = wired
	for name, req := range cases {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	if m := s.Metrics(); m.Hits+m.Cold+m.Warm+m.Shared != 0 {
		t.Errorf("rejected requests were served: %+v", m)
	}
	// A flag bit the codec does not define would have its payload
	// misread, so decoding fails typed; the wire carries the type.
	for bit := 0; bit < 8; bit++ {
		if 1<<bit&(flagEdges|flagDelta) != 0 {
			continue
		}
		p := encodeRequest(base)
		p[0] |= 1 << bit
		_, err := decodeRequest(p)
		if !errors.Is(err, ErrBadRequest) || !errors.Is(decodeError(encodeError(err)), ErrBadRequest) {
			t.Errorf("unknown flag bit %d: err = %v, want ErrBadRequest on both ends of the wire", bit, err)
		}
	}
}

// TestWireEndToEnd runs the daemon on a real TCP listener and drives
// it through the wire client: cold over the wire, hit over the wire,
// typed error over the wire.
func TestWireEndToEnd(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)

	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	req := testRequest(1)
	cold, err := cl.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("wire cold Do: %v", err)
	}
	if cold.Served != ServedCold {
		t.Fatalf("wire cold served %v", cold.Served)
	}
	checkPartition(t, cold, req)

	hit, err := cl.Do(context.Background(), testRequest(1))
	if err != nil {
		t.Fatalf("wire hit Do: %v", err)
	}
	if hit.Served != ServedHit || !reflect.DeepEqual(hit.Part, cold.Part) {
		t.Fatalf("wire hit served %v, bit-identical=%v", hit.Served, reflect.DeepEqual(hit.Part, cold.Part))
	}

	// A typed error survives the round trip as an errors.Is match.
	if _, err := cl.Do(context.Background(), &Request{NNode: -1, NParts: 1, Spec: testSpec()}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wire bad request: err = %v, want ErrBadRequest", err)
	}

	// The wire carries tolerances as raw float64 bits, so a NaN arrives
	// intact; Spec.Resolve is what must reject it.
	for _, sp := range []partition.Spec{
		{Method: partition.MethodMultilevel, Imbalance: math.NaN()},
		{Method: partition.MethodStream, BalanceSlack: math.NaN()},
	} {
		req := testRequest(1)
		req.Spec = sp
		if _, err := cl.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("wire %+v: err = %v, want ErrBadRequest", sp, err)
		}
	}
}

// TestDoCancellation pins the unwinding contract for in-process
// callers: cancelling the request context mid-compute returns an
// error wrapping ctx.Err().
func TestDoCancellation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	s.compute = func(jctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error) {
		close(started)
		<-jctx.Done() // the abandoned job's context is cancelled with it
		return nil, jctx.Err()
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, testRequest(2))
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: err = %v, want wrapped context.Canceled", err)
	}
}

// TestSingleflightAccounting drives a 2-graph working set from four
// concurrent wire clients and checks the cache and singleflight
// accounting: every request answered, each graph computed cold exactly
// once, everything else a hit or a share of the in-flight compute.
func TestSingleflightAccounting(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)

	const clients, requests, graphs = 4, 6, 2
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		served = map[Served]int{}
		start  = make(chan struct{})
	)
	for i := 0; i < clients; i++ {
		cl, err := Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatalf("dial client %d: %v", i, err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for r := 0; r < requests; r++ {
				resp, err := cl.Do(context.Background(), testRequest((i+r)%graphs))
				if err != nil {
					t.Errorf("client %d request %d: %v", i, r, err)
					return
				}
				mu.Lock()
				served[resp.Served]++
				mu.Unlock()
			}
		}(i)
	}
	close(start)
	wg.Wait()

	total := served[ServedHit] + served[ServedShared] + served[ServedCold] + served[ServedWarm]
	if total != clients*requests {
		t.Fatalf("served classes sum to %d (%v), want %d", total, served, clients*requests)
	}
	if served[ServedCold] != graphs {
		t.Fatalf("%d cold computes for a %d-graph working set (%v)", served[ServedCold], graphs, served)
	}
	if reused := served[ServedHit] + served[ServedShared]; 2*reused <= total {
		t.Fatalf("%d of %d requests reused prior work, want more than half", reused, total)
	}
}
