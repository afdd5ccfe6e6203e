package chaos_test

import (
	"math"
	"testing"

	"chaos/chaos"
)

// TestQuickstartSurface exercises the documented public API end to end:
// declare, construct, partition, redistribute, partition iterations,
// execute with reuse.
func TestQuickstartSurface(t *testing.T) {
	const n, p = 24, 4
	// A ring mesh: edge i links i and i+1 mod n.
	err := chaos.Run(chaos.IPSC860(p), func(s *chaos.Session) {
		x := s.NewArray("x", n)
		y := s.NewArray("y", n)
		x.FillByGlobal(func(g int) float64 { return float64(g + 1) })
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("e1", n)
		e2 := s.NewIntArray("e2", n)
		e1.FillByGlobal(func(g int) int { return g })
		e2.FillByGlobal(func(g int) int { return (g + 1) % n })

		g := s.Construct(n, chaos.GeoColInput{Link1: e1, Link2: e2})
		m, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: chaos.MethodRSB}, p)
		if err != nil {
			t.Error(err)
			return
		}
		s.Redistribute(m, []*chaos.Array{x, y}, nil)

		loop := s.NewLoop("ring", n,
			[]chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
			2, chaos.KernelFunc(func(st *chaos.Strip) {
				for b := range st.Iters {
					x1, x2 := st.Reads[0].At(b), st.Reads[1].At(b)
					st.Writes[0].Combine(b, x1+x2)
					st.Writes[1].Combine(b, x2-x1)
				}
			}))
		loop.PartitionIterations(chaos.AlmostOwnerComputes)
		for it := 0; it < 3; it++ {
			loop.Execute()
		}
		hits, misses := s.Reg.Stats()
		if hits != 2 || misses != 1 {
			t.Errorf("reuse stats (%d,%d), want (2,1)", hits, misses)
		}
		// Serial reference: y(g) over 3 sweeps.
		want := make([]float64, n)
		for sweep := 0; sweep < 3; sweep++ {
			for i := 0; i < n; i++ {
				a, b := float64(i+1), float64((i+1)%n+1)
				want[i] += a + b
				want[(i+1)%n] += b - a
			}
		}
		for i, g := range y.MyGlobals() {
			if math.Abs(y.Data[i]-want[g]) > 1e-9 {
				t.Errorf("y[%d] = %v, want %v", g, y.Data[i], want[g])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterPartitionerSurface(t *testing.T) {
	names := chaos.Partitioners()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"BLOCK", "RCB", "RSB"} {
		if !found[want] {
			t.Errorf("built-in partitioner %q missing from %v", want, names)
		}
	}
}

func TestZeroCostConfig(t *testing.T) {
	err := chaos.Run(chaos.ZeroCost(2), func(s *chaos.Session) {
		if s.C.Clock() != 0 {
			t.Error("zero-cost machine advanced clock at start")
		}
		s.C.Barrier()
		if s.C.Clock() != 0 {
			t.Error("zero-cost barrier charged time")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
