package machine

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunSpawnsAllRanks(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 17} {
		var n int64
		if err := Run(Zero(p), func(c *Ctx) {
			atomic.AddInt64(&n, 1)
			if c.Procs() != p {
				t.Errorf("Procs() = %d, want %d", c.Procs(), p)
			}
		}); err != nil {
			t.Fatalf("Run(%d): %v", p, err)
		}
		if n != int64(p) {
			t.Fatalf("ran %d ranks, want %d", n, p)
		}
	}
}

func TestRunInvalidProcs(t *testing.T) {
	if err := Run(Zero(0), func(*Ctx) {}); err == nil {
		t.Fatal("expected error for 0 procs")
	}
}

func TestPanicPropagates(t *testing.T) {
	err := Run(Zero(4), func(c *Ctx) {
		if c.Rank() == 2 {
			panic("boom")
		}
		// Other ranks block forever; abort must unwedge them.
		c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic message", err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("err = %v, want rank attribution", err)
	}
}

func TestPanicUnblocksCollectives(t *testing.T) {
	err := Run(Zero(4), func(c *Ctx) {
		if c.Rank() == 0 {
			panic("collective abort")
		}
		c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "collective abort") {
		t.Fatalf("err = %v", err)
	}
}

func TestAllReduce(t *testing.T) {
	err := Run(Zero(8), func(c *Ctx) {
		if got := c.SumInt(c.Rank()); got != 28 {
			t.Errorf("SumInt = %d, want 28", got)
		}
		if got := c.MaxInt(c.Rank() * 3); got != 21 {
			t.Errorf("MaxInt = %d, want 21", got)
		}
		if got := c.SumFloat(0.5); got != 4.0 {
			t.Errorf("SumFloat = %v, want 4", got)
		}
		if got := c.MinFloat(float64(c.Rank()) - 2); got != -2 {
			t.Errorf("MinFloat = %v, want -2", got)
		}
		if got := c.MaxFloat(float64(c.Rank())); got != 7 {
			t.Errorf("MaxFloat = %v, want 7", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	err := Run(Zero(5), func(c *Ctx) {
		got := c.AllGatherInt(c.Rank() * c.Rank())
		for r, v := range got {
			if v != r*r {
				t.Errorf("AllGatherInt[%d] = %d", r, v)
			}
		}
		// Variable-length gather: rank r contributes r copies of r.
		xs := make([]int, c.Rank())
		for i := range xs {
			xs[i] = c.Rank()
		}
		cat := c.AllGatherInts(xs)
		if len(cat) != 10 {
			t.Fatalf("AllGatherInts length %d, want 10", len(cat))
		}
		want := []int{1, 2, 2, 3, 3, 3, 4, 4, 4, 4}
		for i := range cat {
			if cat[i] != want[i] {
				t.Errorf("AllGatherInts[%d] = %d, want %d", i, cat[i], want[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	err := Run(Zero(6), func(c *Ctx) {
		var src []int
		if c.Rank() == 3 {
			src = []int{9, 8, 7}
		}
		got := c.BroadcastInts(3, src)
		if len(got) != 3 || got[0] != 9 || got[2] != 7 {
			t.Errorf("rank %d BroadcastInts = %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAll(t *testing.T) {
	err := Run(Zero(4), func(c *Ctx) {
		out := make([][]int, c.Procs())
		for p := range out {
			// Send p+1 values of rank*10+p to rank p.
			for i := 0; i <= p; i++ {
				out[p] = append(out[p], c.Rank()*10+p)
			}
		}
		in := c.AlltoAllInts(out)
		for p := range in {
			if len(in[p]) != c.Rank()+1 {
				t.Errorf("rank %d: from %d got %d values, want %d",
					c.Rank(), p, len(in[p]), c.Rank()+1)
			}
			for _, v := range in[p] {
				if v != p*10+c.Rank() {
					t.Errorf("rank %d: from %d got value %d", c.Rank(), p, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoAllFloats is TestAlltoAll's float leg, on ExchangeFloats:
// out and its rows are built here and never written again.
func TestAlltoAllFloats(t *testing.T) {
	err := Run(Zero(3), func(c *Ctx) {
		out := make([][]float64, c.Procs())
		for p := range out {
			out[p] = []float64{float64(c.Rank()) + float64(p)/10}
		}
		in := c.ExchangeFloats(out, nil)
		for p := range in {
			want := float64(p) + float64(c.Rank())/10
			if math.Abs(in[p][0]-want) > 1e-12 {
				t.Errorf("rank %d from %d: %v want %v", c.Rank(), p, in[p][0], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockAdvancesOnComm(t *testing.T) {
	cfg := IPSC860(2)
	err := Run(cfg, func(c *Ctx) {
		if c.Clock() != 0 {
			t.Errorf("initial clock %v", c.Clock())
		}
		out := make([][]float64, 2)
		if c.Rank() == 0 {
			out[1] = make([]float64, 1000)
		}
		c.ExchangeFloats(out, nil)
		// Sender and receiver clocks must both cover the wire time of
		// 8000 bytes plus their side's per-message overhead.
		overhead := cfg.SendOverhead
		if c.Rank() == 1 {
			overhead = cfg.RecvOverhead
		}
		if c.Clock() < overhead+8000*cfg.ByteTime {
			t.Errorf("rank %d clock %v too small", c.Rank(), c.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	err := Run(IPSC860(4), func(c *Ctx) {
		c.AdvanceClock(float64(c.Rank())) // rank r at time r
		c.Barrier()
		if c.Clock() < 3 {
			t.Errorf("rank %d clock %v after barrier, want >= 3", c.Rank(), c.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlopsAndWordsCharges(t *testing.T) {
	cfg := IPSC860(1)
	err := Run(cfg, func(c *Ctx) {
		c.Flops(1000)
		want := 1000 * cfg.FlopTime
		if math.Abs(c.Clock()-want) > 1e-15 {
			t.Errorf("Flops charge %v, want %v", c.Clock(), want)
		}
		c.Words(500)
		want += 500 * cfg.WordTime
		if math.Abs(c.Clock()-want) > 1e-15 {
			t.Errorf("Words charge %v, want %v", c.Clock(), want)
		}
		c.Flops(-5) // no-op
		c.Words(0)  // no-op
		if math.Abs(c.Clock()-want) > 1e-15 {
			t.Errorf("negative/zero charges changed clock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for p, want := range cases {
		if got := logceil(p); got != want {
			t.Errorf("logceil(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestMaxClock(t *testing.T) {
	st, err := RunStats(context.Background(), Zero(4), func(c *Ctx) {
		c.AdvanceClock(float64(c.Rank()) * 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxClock != 6 {
		t.Fatalf("MaxClock = %v, want 6", st.MaxClock)
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() float64 {
		st, err := RunStats(context.Background(), IPSC860(8), func(c *Ctx) {
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
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual time not deterministic: %v vs %v", a, b)
	}
}
