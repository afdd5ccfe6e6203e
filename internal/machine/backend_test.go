package machine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chaos/internal/xrand"
)

// realCfg returns a zero-cost Real-backend config.
func realCfg(procs int) Config {
	cfg := Zero(procs)
	cfg.Backend = Real
	return cfg
}

func TestBackendString(t *testing.T) {
	if Simulated.String() != "simulated" || Real.String() != "real" {
		t.Error("Backend.String mismatch")
	}
	if Backend(9).String() == "" {
		t.Error("unknown backend should still format")
	}
}

// TestRealBackendCollectives drives the full collective surface on the
// Real backend and checks every result, including the receiver-copy
// contract: mutating what one rank received must not corrupt another
// rank's view (payloads are physically copied on delivery).
func TestRealBackendCollectives(t *testing.T) {
	const p = 6
	err := Run(realCfg(p), func(c *Ctx) {
		if got := c.SumInt(c.Rank()); got != p*(p-1)/2 {
			t.Errorf("SumInt = %d", got)
		}
		bc := c.BroadcastInts(2, []int{10, 20, 30})
		bc[0] = -c.Rank() // scribble: per-rank copy, must stay private
		c.Barrier()
		bc2 := c.BroadcastInts(2, []int{10, 20, 30})
		if bc2[0] != 10 {
			t.Errorf("rank %d: broadcast copy not private: %v", c.Rank(), bc2)
		}
		out := make([][]int, p)
		for d := 0; d < p; d++ {
			out[d] = []int{c.Rank(), d}
		}
		in := c.AlltoAllInts(out)
		for s := 0; s < p; s++ {
			if in[s][0] != s || in[s][1] != c.Rank() {
				t.Errorf("rank %d from %d: %v", c.Rank(), s, in[s])
			}
			in[s][0] = -1 // receiver owns its copy
		}
		fo := make([][]float64, p)
		for d := 0; d < p; d++ {
			fo[d] = []float64{float64(c.Rank()) + 0.5}
		}
		fi := c.ExchangeFloats(fo, nil) // fo is never written again
		for s := 0; s < p; s++ {
			if fi[s][0] != float64(s)+0.5 {
				t.Errorf("rank %d floats from %d: %v", c.Rank(), s, fi[s])
			}
		}
		if g := c.AllGatherInt(c.Rank() * 3); g[p-1] != (p-1)*3 {
			t.Errorf("AllGatherInt: %v", g)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRealBackendOversubscribed runs many more ranks than the Go
// scheduler runs at once (8×GOMAXPROCS) through a collective-heavy
// body on the Real backend, and checks every rank's results and
// virtual clock against the Simulated run of the same body: ranks
// blocked in a collective must leave the cores to the runnable ones.
func TestRealBackendOversubscribed(t *testing.T) {
	p := 8 * runtime.GOMAXPROCS(0)
	run := func(backend Backend) ([]int, float64) {
		cfg := IPSC860(p)
		cfg.Backend = backend
		sums := make([]int, p)
		st, err := RunStats(context.Background(), cfg, func(c *Ctx) {
			prev := (c.Rank() + p - 1) % p
			for it := 0; it < 20; it++ {
				out := make([][]int, p)
				out[(c.Rank()+1)%p] = []int{c.Rank(), it}
				got := c.AlltoAllInts(out)[prev]
				if got[0] != prev || got[1] != it {
					t.Errorf("%v: ring recv %v from %d", backend, got, prev)
				}
				sums[c.Rank()] += c.SumInt(got[0] * it)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sums, st.MaxClock
	}
	simSums, simClock := run(Simulated)
	realSums, realClock := run(Real)
	if !slices.Equal(simSums, realSums) || simClock != realClock {
		t.Fatalf("Real at P=%d differs from Simulated: clocks %v vs %v, sums equal %v",
			p, realClock, simClock, slices.Equal(simSums, realSums))
	}
}

// TestRunStatsBothTrajectories checks that one run reports both the
// virtual makespan and a plausible wall time, on both backends.
func TestRunStatsBothTrajectories(t *testing.T) {
	for _, backend := range []Backend{Simulated, Real} {
		cfg := IPSC860(4)
		cfg.Backend = backend
		st, err := RunStats(context.Background(), cfg, func(c *Ctx) {
			c.Flops(1000)
			c.Barrier()
			time.Sleep(2 * time.Millisecond)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxClock < 1000*cfg.FlopTime {
			t.Errorf("%v: MaxClock %v below flop charge", backend, st.MaxClock)
		}
		if st.Elapsed < 2*time.Millisecond {
			t.Errorf("%v: Elapsed %v below the slept wall time", backend, st.Elapsed)
		}
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

// TestCtxRandSplitting pins the per-rank stream contract: splits
// depend only on (Seed, rank), differ across ranks, repeat across
// runs, and are identical on both backends.
func TestCtxRandSplitting(t *testing.T) {
	draw := func(backend Backend, seed uint64) []uint64 {
		cfg := Zero(4)
		cfg.Backend = backend
		cfg.Seed = seed
		out := make([]uint64, 4)
		if err := Run(cfg, func(c *Ctx) {
			r := c.Rand()
			v := r.Uint64()
			if c.Rand() != r {
				t.Error("Rand() not stable across calls")
			}
			got := c.AllGatherInts([]int{int(v >> 1)})
			if c.Rank() == 0 {
				for i, x := range got {
					out[i] = uint64(x)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	simA := draw(Simulated, 42)
	simB := draw(Simulated, 42)
	realA := draw(Real, 42)
	other := draw(Simulated, 43)
	for r := 1; r < 4; r++ {
		if simA[r] == simA[0] {
			t.Errorf("ranks 0 and %d drew the same stream", r)
		}
	}
	for r := 0; r < 4; r++ {
		if simA[r] != simB[r] {
			t.Errorf("rank %d stream differs across runs", r)
		}
		if simA[r] != realA[r] {
			t.Errorf("rank %d stream differs across backends", r)
		}
		if simA[r] == other[r] {
			t.Errorf("rank %d stream ignores the seed", r)
		}
	}
}

// TestCancelBeforeRun pins pre-cancelled contexts: the body must never
// run and the error must unwrap to context.Canceled.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	_, err := RunStats(ctx, realCfg(4), func(c *Ctx) {
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
// 200 short Real-backend runs with randomized cancel points — before the first collective, while other ranks sit inside
// one, and after the last — asserting that cancellation never
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
		cfg := realCfg(p)
		cfg.Seed = uint64(i)
		mode := rng.Intn(3)         // 0 = before first collective, 1 = during, 2 = no cancel
		canceller := rng.Intn(p)    // which rank calls cancel
		cancelAt := 1 + rng.Intn(4) // collective round for mode 1
		ctx, cancel := context.WithCancel(context.Background())
		var unwound int64
		_, err := RunStats(ctx, cfg, func(c *Ctx) {
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

// TestRealBackendDeterministicClocks mirrors the simulated-backend
// clock-determinism pin on the Real backend: virtual charges are kept
// in real mode so both trajectories come out of one run, and they must
// not depend on host scheduling.
func TestRealBackendDeterministicClocks(t *testing.T) {
	run := func() float64 {
		cfg := IPSC860(8)
		cfg.Backend = Real
		st, err := RunStats(context.Background(), cfg, func(c *Ctx) {
			out := make([][]float64, c.Procs())
			for p := range out {
				out[p] = make([]float64, (c.Rank()+1)*(p+1))
			}
			c.ExchangeFloats(out, nil)
			c.SumFloat(float64(c.Rank()))
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.MaxClock
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("real-backend virtual time not deterministic: %v vs %v", a, b)
	}
}
