package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStress32Clients is the service-grade concurrency gauntlet: 32
// concurrent wire clients fire a mix of cold computes, warm churn
// requests, repeat hits and mid-request cancellations at one
// in-process chaosd. The pinned contracts, checked under -race via
// the CI matrix:
//
//   - no deadlock: every request resolves within the test deadline;
//   - uniform unwinding: every cancelled request's error wraps
//     ctx.Err() (errors.Is(err, context.Canceled));
//   - consistency: all successful answers for one key are
//     bit-identical;
//   - no goroutine leak once the server closes.
func TestStress32Clients(t *testing.T) {
	const (
		clients  = 32
		rounds   = 5
		variants = 3
	)
	base := runtime.NumGoroutine()

	s := New(Options{QueueDepth: 4 * clients * variants}) // ample: overload is admission_test's subject
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)

	// Seed every variant cold so warm/delta rounds have a base, and
	// collect the reference answers.
	seed := make([]*Response, variants)
	cl0, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for v := 0; v < variants; v++ {
		seed[v], err = cl0.Do(context.Background(), testRequest(v))
		if err != nil {
			t.Fatalf("seed variant %d: %v", v, err)
		}
	}
	cl0.Close()

	deltaReq := func(v int) *Request {
		return &Request{
			NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(),
			Base:  seed[v].Fingerprint,
			Delta: []EdgeRewire{{Edge: testNNode + v, NewEnd: (v*37 + 11) % testNNode}},
		}
	}

	var (
		mu       sync.Mutex
		byKey    = map[string][]int{} // request kind → reference part vector
		nCancels int
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := (c + r) % variants
				mode := (c + 3*r) % 4
				switch mode {
				case 3:
					// Cancelled mid-request: its own connection, cancelled
					// while the request is (at most) in flight.
					cl, err := Dial("tcp", l.Addr().String())
					if err != nil {
						errs <- fmt.Errorf("client %d dial: %w", c, err)
						return
					}
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() { time.Sleep(time.Duration(c%5) * time.Millisecond); cancel(); close(done) }()
					_, err = cl.Do(ctx, testRequest(v))
					<-done
					cl.Close()
					// The race is real: the response may have won. But a
					// loss must be a ctx.Err()-wrapped unwinding, not a
					// bare transport error.
					if err != nil && !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("client %d cancelled request: err = %w, want wrapped context.Canceled", c, err)
						return
					}
					if err != nil {
						mu.Lock()
						nCancels++
						mu.Unlock()
					}
				default:
					// Durable connection per request keeps the mix honest:
					// hits, shared waits and warm computes interleave.
					cl, err := Dial("tcp", l.Addr().String())
					if err != nil {
						errs <- fmt.Errorf("client %d dial: %w", c, err)
						return
					}
					var req *Request
					kind := fmt.Sprintf("cold/%d", v)
					if mode == 2 {
						req = deltaReq(v)
						kind = fmt.Sprintf("delta/%d", v)
					} else {
						req = testRequest(v)
					}
					resp, err := cl.Do(context.Background(), req)
					cl.Close()
					if err != nil {
						errs <- fmt.Errorf("client %d %s: %w", c, kind, err)
						return
					}
					mu.Lock()
					if ref, ok := byKey[kind]; ok {
						if !reflect.DeepEqual(ref, resp.Part) {
							mu.Unlock()
							errs <- fmt.Errorf("client %d %s: answer differs from reference", c, kind)
							return
						}
					} else {
						byKey[kind] = resp.Part
					}
					mu.Unlock()
				}
			}
		}(c)
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Minute):
		t.Fatalf("deadlock: stress clients did not finish")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics()
	if m.Cold < int64(variants) || m.Hits == 0 {
		t.Errorf("metrics show no cache economy: %+v", m)
	}
	t.Logf("metrics: cold=%d warm=%d hits=%d shared=%d rejected=%d cancels=%d",
		m.Cold, m.Warm, m.Hits, m.Shared, m.Rejected, nCancels)

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Goroutine settle: workers, connection handlers, readers and any
	// abandoned computes must all retire.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d at start", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseUnblocksWaiters pins shutdown unwinding: requests running
// or queued when the server closes come back with a wrapped context
// error, not a hang — the in-flight compute's context is cancelled
// and the queued jobs are drained with a shutdown error.
func TestCloseUnblocksWaiters(t *testing.T) {
	sc := newStubCompute()
	s := New(Options{Workers: 1, QueueDepth: 2})
	s.compute = sc.fn

	// Start the requests one stage at a time: issued together, all three
	// can reach admission before the worker dequeues the first, and the
	// third then finds the queue (depth 2) full.
	errc := make(chan error, 3)
	do := func(v int) {
		go func() {
			_, err := s.Do(context.Background(), tinyRequest(v))
			errc <- err
		}()
	}
	// Request 0 runs: its compute has started.
	do(0)
	eventually(t, func() string {
		if len(sc.started()) == 0 {
			return "no compute started"
		}
		return ""
	})
	// Requests 1 and 2 are queued behind it.
	do(1)
	do(2)
	eventually(t, func() string {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.flight) != 3 || len(s.work) != 2 {
			return fmt.Sprintf("flight has %d jobs and the queue %d, want 3 and 2", len(s.flight), len(s.work))
		}
		return ""
	})

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("waiter %d: err = %v, want wrapped context.Canceled", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d did not unblock on Close", i)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}
