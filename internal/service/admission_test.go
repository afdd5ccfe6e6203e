package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"chaos/internal/partition"
)

// stubCompute replaces the engine with a controllable stand-in: each
// compute blocks until its per-key gate opens, and records the order
// keys entered compute. Admission behavior (queue bounds, FIFO drain,
// rejection) is then deterministic and engine-free.
type stubCompute struct {
	mu    sync.Mutex
	order []Fingerprint
	gates map[Fingerprint]chan struct{}
}

func newStubCompute() *stubCompute {
	return &stubCompute{gates: make(map[Fingerprint]chan struct{})}
}

// gate returns (creating on demand) the release channel for fp.
func (sc *stubCompute) gate(fp Fingerprint) chan struct{} {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	g, ok := sc.gates[fp]
	if !ok {
		g = make(chan struct{})
		sc.gates[fp] = g
	}
	return g
}

func (sc *stubCompute) fn(ctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error) {
	fp := gc.fingerprint()
	sc.mu.Lock()
	sc.order = append(sc.order, fp)
	g, ok := sc.gates[fp]
	if !ok {
		g = make(chan struct{})
		sc.gates[fp] = g
	}
	sc.mu.Unlock()
	select {
	case <-g:
	case <-ctx.Done():
		return nil, fmt.Errorf("stub compute cancelled: %w", ctx.Err())
	}
	return &computeResult{part: make([]int, gc.n)}, nil
}

func (sc *stubCompute) started() []Fingerprint {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]Fingerprint(nil), sc.order...)
}

// tinyRequest builds a distinct trivial request per variant; the stub
// compute never looks at the graph beyond its fingerprint.
func tinyRequest(variant int) *Request {
	return &Request{
		NNode: 64, NParts: 2, Procs: 1,
		Spec: partition.Spec{Method: partition.MethodBlock},
		E1:   []int{0, 1}, E2: []int{1, (variant + 2) % 64},
	}
}

// eventually polls until pending answers "", and after five seconds
// fails the test with what it last answered.
func eventually(t *testing.T, pending func() string) {
	t.Helper()
	for deadline := time.After(5 * time.Second); ; {
		msg := pending()
		if msg == "" {
			return
		}
		select {
		case <-deadline:
			t.Fatal(msg)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestAdmissionControl pins the bounded-pool contract across pool
// widths: with every worker busy and the queue full, the next
// distinct request is rejected immediately with ErrOverloaded; the
// queued requests then drain in FIFO order.
func TestAdmissionControl(t *testing.T) {
	const queueDepth = 3
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sc := newStubCompute()
			s := New(Options{Workers: workers, QueueDepth: queueDepth})
			defer s.Close()
			s.compute = sc.fn

			var wg sync.WaitGroup
			do := func(variant int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.Do(context.Background(), tinyRequest(variant)); err != nil {
						t.Errorf("variant %d: %v", variant, err)
					}
				}()
			}

			// Plug every worker with a blocking compute, one at a time
			// and waiting until each is actually inside the engine: issued
			// together, more than queueDepth of them can be queued at once
			// and the rest are rejected.
			for v := 0; v < workers; v++ {
				do(v)
				eventually(t, func() string {
					if n := len(sc.started()); n <= v {
						return fmt.Sprintf("only %d/%d workers started", n, workers)
					}
					return ""
				})
			}

			// Fill the queue exactly, one request at a time — waiting for
			// each to claim its slot (visible in the flight map) before
			// issuing the next, so the enqueue order is the spawn order.
			// None of these can start: every worker is plugged.
			queued := make([]Fingerprint, 0, queueDepth)
			for v := workers; v < workers+queueDepth; v++ {
				queued = append(queued, tinyRequest(v).fingerprintForTest())
				do(v)
				eventually(t, func() string {
					s.mu.Lock()
					defer s.mu.Unlock()
					if n := len(s.flight); n != v+1 {
						return fmt.Sprintf("flight has %d entries, want %d", n, v+1)
					}
					return ""
				})
			}

			// Beyond capacity: immediate typed rejection, no blocking.
			t0 := time.Now()
			_, err := s.Do(context.Background(), tinyRequest(workers+queueDepth))
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("over-capacity request: err = %v, want ErrOverloaded", err)
			}
			if d := time.Since(t0); d > time.Second {
				t.Fatalf("rejection took %v, want immediate", d)
			}
			if m := s.Metrics(); m.Rejected != 1 {
				t.Fatalf("Rejected = %d, want 1", m.Rejected)
			}

			// A request identical to a queued one batches on (shared),
			// costing no queue slot — it must NOT be rejected.
			sharedErr := make(chan error, 1)
			go func() {
				_, err := s.Do(context.Background(), tinyRequest(workers))
				sharedErr <- err
			}()
			// Wait until it has joined the queued job: arriving after that
			// job completed, it would start a compute of its own.
			eventually(t, func() string {
				s.mu.Lock()
				defer s.mu.Unlock()
				for _, j := range s.flight {
					if j.key.fp == queued[0] && j.waiters == 2 {
						return ""
					}
				}
				return "the shared request has not joined the queued job"
			})

			// Pre-open every queued job's gate, then release exactly one
			// plugged worker: with its peers still plugged, it alone
			// drains the queue, so the stub's start order beyond the
			// plugs must equal the enqueue order exactly — FIFO, at
			// every pool width.
			for _, fp := range queued {
				close(sc.gate(fp))
			}
			close(sc.gate(tinyRequest(0).fingerprintForTest()))
			eventually(t, func() string {
				if n := len(sc.started()); n < workers+queueDepth {
					return fmt.Sprintf("queue did not drain: %d/%d computes started", n, workers+queueDepth)
				}
				return ""
			})
			got := sc.started()[workers:]
			if !reflect.DeepEqual(got, queued) {
				t.Fatalf("queue drained as %v, enqueued as %v", got, queued)
			}

			// Release the remaining plugs and let everything unwind.
			for v := 1; v < workers; v++ {
				close(sc.gate(tinyRequest(v).fingerprintForTest()))
			}
			wg.Wait()
			if err := <-sharedErr; err != nil {
				t.Fatalf("request batched on queued key failed: %v", err)
			}
		})
	}
}

// fingerprintForTest exposes the request's content fingerprint to the
// admission test's gate bookkeeping.
func (r *Request) fingerprintForTest() Fingerprint {
	return (&graphContent{n: r.NNode, e1: r.E1, e2: r.E2}).fingerprint()
}
