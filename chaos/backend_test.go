package chaos_test

import (
	"context"
	"errors"
	"testing"

	"chaos/chaos"
)

// ringSweep is a small full-pipeline body used by the backend tests:
// ring mesh, RSB partitioning, three executor sweeps. It stores the
// rank-0 gathered y vector through out.
func ringSweep(t *testing.T, out *[]float64) func(*chaos.Session) {
	const n = 24
	return func(s *chaos.Session) {
		x := s.NewArray("x", n)
		y := s.NewArray("y", n)
		x.FillByGlobal(func(g int) float64 { return float64(g + 1) })
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("e1", n)
		e2 := s.NewIntArray("e2", n)
		e1.FillByGlobal(func(g int) int { return g })
		e2.FillByGlobal(func(g int) int { return (g + 1) % n })
		g := s.Construct(n, chaos.GeoColInput{Link1: e1, Link2: e2})
		m, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: chaos.MethodRSB}, s.C.Procs())
		if err != nil {
			t.Error(err)
			return
		}
		s.Redistribute(m, []*chaos.Array{x, y}, nil)
		loop := s.NewLoop("ring", n,
			[]chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
			2, chaos.KernelFunc(func(iters []int, in, out []float64) {
				for b := range iters {
					out[2*b] = in[2*b] + in[2*b+1]
					out[2*b+1] = in[2*b+1] - in[2*b]
				}
			}))
		loop.PartitionIterations(chaos.AlmostOwnerComputes)
		for it := 0; it < 3; it++ {
			loop.Execute()
		}
		// y is not written again, as GatherFloats asks.
		if full := s.C.GatherFloats(0, y.Data); s.C.Rank() == 0 {
			*out = full
		}
	}
}

// TestRunRealMatchesRun pins the public backend contract: RunReal
// produces bit-identical results to Run, reports both timing
// trajectories, and the Backend/Stats aliases interoperate with a
// Config.Backend-selected Run.
func TestRunRealMatchesRun(t *testing.T) {
	const p = 4
	var simY, realY []float64
	if err := chaos.Run(chaos.IPSC860(p), ringSweep(t, &simY)); err != nil {
		t.Fatal(err)
	}
	st, err := chaos.RunReal(context.Background(), chaos.IPSC860(p), ringSweep(t, &realY))
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxClock <= 0 || st.Elapsed <= 0 {
		t.Errorf("stats missing a trajectory: %+v", st)
	}
	if len(simY) == 0 || len(simY) != len(realY) {
		t.Fatalf("gathered %d sim vs %d real values", len(simY), len(realY))
	}
	for i := range simY {
		if simY[i] != realY[i] {
			t.Errorf("y[%d]: real %v != sim %v", i, realY[i], simY[i])
		}
	}

	// Config.Backend is the equivalent spelling.
	cfg := chaos.IPSC860(p)
	cfg.Backend = chaos.Real
	var againY []float64
	if err := chaos.Run(cfg, ringSweep(t, &againY)); err != nil {
		t.Fatal(err)
	}
	for i := range simY {
		if againY[i] != simY[i] {
			t.Errorf("Config.Backend run y[%d]: %v != %v", i, againY[i], simY[i])
		}
	}
}

// TestRunRealCancelled pins the cancellation contract on the public
// surface: a pre-cancelled context unwinds the run with an error that
// wraps context.Canceled.
func TestRunRealCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var y []float64
	_, err := chaos.RunReal(ctx, chaos.IPSC860(2), ringSweep(t, &y))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
