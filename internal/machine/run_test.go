package machine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chaos/internal/xrand"
)

// TestOversubscribed runs many more ranks than the Go scheduler runs
// at once (8×GOMAXPROCS) through a collective-heavy body and checks
// every rank's sum against its expected value: ranks blocked in a
// collective must leave the cores to the runnable ones.
func TestOversubscribed(t *testing.T) {
	p := 8 * runtime.GOMAXPROCS(0)
	const iters = 20
	sums := make([]int, p)
	_, err := RunStats(context.Background(), IPSC860(p), func(c *Ctx) {
		prev := (c.Rank() + p - 1) % p
		for it := 0; it < iters; it++ {
			out := make([][]int, p)
			out[(c.Rank()+1)%p] = []int{c.Rank(), it}
			got := c.AlltoAllInts(out)[prev]
			if got[0] != prev || got[1] != it {
				t.Errorf("ring recv %v from %d", got, prev)
			}
			sums[c.Rank()] += c.SumInt(got[0] * it)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank receives its predecessor's rank, so round it sums
	// it·Σr = it·p(p-1)/2 on every rank.
	want := iters * (iters - 1) / 2 * p * (p - 1) / 2
	for r, got := range sums {
		if got != want {
			t.Fatalf("P=%d rank %d: sum %d, want %d", p, r, got, want)
		}
	}
}

// TestRunStatsBothTrajectories checks that one run reports both the
// virtual makespan and a plausible wall time.
func TestRunStatsBothTrajectories(t *testing.T) {
	cfg := IPSC860(4)
	st, err := RunStats(context.Background(), cfg, func(c *Ctx) {
		c.Flops(1000)
		c.Barrier()
		time.Sleep(2 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxClock < 1000*cfg.FlopTime {
		t.Errorf("MaxClock %v below flop charge", st.MaxClock)
	}
	if st.Elapsed < 2*time.Millisecond {
		t.Errorf("Elapsed %v below the slept wall time", st.Elapsed)
	}
}

func TestElapsedHelper(t *testing.T) {
	st, err := RunStats(context.Background(), Zero(2), func(c *Ctx) {
		time.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec := st.Elapsed.Seconds(); sec < 0.001 {
		t.Errorf("Elapsed = %v s, want >= 1ms", sec)
	}
}

func TestRunStatsInvalidProcs(t *testing.T) {
	if _, err := RunStats(context.Background(), Zero(0), func(*Ctx) {}); err == nil {
		t.Fatal("expected error for 0 procs")
	}
}

// TestCancelBeforeRun pins pre-cancelled contexts: the body must never
// run and the error must unwrap to context.Canceled.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	_, err := RunStats(ctx, Zero(4), func(c *Ctx) {
		atomic.AddInt64(&ran, 1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d ranks ran under a pre-cancelled context", ran)
	}
}

// TestCancelStressRandomizedPoints is the race/cancellation gauntlet:
// 200 short runs with randomized cancel points — before the first
// collective, while other ranks sit inside one, and after the last — asserting that cancellation never
// deadlocks, that every rank unwinds with the same cancellation error,
// and that no goroutines leak once the loop settles.
func TestCancelStressRandomizedPoints(t *testing.T) {
	const (
		runs = 200
		p    = 4
	)
	rng := xrand.New(1993)
	base := runtime.NumGoroutine()
	for i := 0; i < runs; i++ {
		mode := rng.Intn(3)         // 0 = before first collective, 1 = during, 2 = no cancel
		canceller := rng.Intn(p)    // which rank calls cancel
		cancelAt := 1 + rng.Intn(4) // collective round for mode 1
		ctx, cancel := context.WithCancel(context.Background())
		var unwound int64
		_, err := RunStats(ctx, Zero(p), func(c *Ctx) {
			defer func() {
				if r := recover(); r != nil {
					atomic.AddInt64(&unwound, 1)
					panic(r)
				}
			}()
			c.Barrier() // warm-up: every rank is in the body past this point
			if mode == 0 && c.Rank() == canceller {
				// Cancel after the warm-up completes and before the
				// loop's first collective.
				cancel()
			}
			for it := 0; ; it++ {
				if mode == 2 && it == 5 {
					return
				}
				if mode == 1 && c.Rank() == canceller && it == cancelAt {
					// The other ranks are already blocked inside this
					// round's barrier: this cancel lands mid-collective.
					cancel()
				}
				c.Barrier()
				if s := c.SumInt(1); s != p {
					panic("bad SumInt under stress")
				}
				if it%3 == 0 {
					out := make([][]int, p)
					out[(c.Rank()+1)%p] = []int{it}
					c.AlltoAllInts(out)
				}
			}
		})
		if mode == 2 {
			if err != nil {
				t.Fatalf("run %d: uncancelled run failed: %v", i, err)
			}
			if unwound != 0 {
				t.Fatalf("run %d: %d ranks unwound without a cancel", i, unwound)
			}
		} else {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d (mode %d): err = %v, want context.Canceled", i, mode, err)
			}
			if !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("run %d: error %q does not describe cancellation", i, err)
			}
			if unwound != p {
				t.Fatalf("run %d (mode %d): %d/%d ranks observed the cancellation unwind",
					i, mode, unwound, p)
			}
		}
		cancel() // mode 2: cancel after completion must be a no-op
	}
	// Goroutine settle: watcher and rank goroutines must all retire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before the stress loop", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
