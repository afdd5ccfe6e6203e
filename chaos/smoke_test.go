package chaos_test

import (
	"math"
	"testing"

	"chaos/chaos"
	"chaos/internal/experiments"
	"chaos/internal/mesh"
)

// TestQuickstartMeshEndToEnd is the examples/quickstart path as a
// tier-1 test: generate an unstructured mesh, CONSTRUCT and partition
// its GeoCoL graph, REDISTRIBUTE the solution arrays, run the edge
// sweep through the inspector/executor with schedule reuse, and verify
// the distributed result against a serial reference sweep.
func TestQuickstartMeshEndToEnd(t *testing.T) {
	const procs, iters = 4, 5
	m := mesh.Generate(300, 42)

	// Serial reference: iters Euler sweeps over the edge list.
	want := make([]float64, m.NNode)
	xs := make([]float64, m.NNode)
	for v := range xs {
		xs[v] = m.InitialState(v)
	}
	out := make([]float64, 2)
	for it := 0; it < iters; it++ {
		for e := 0; e < m.NEdge(); e++ {
			mesh.EulerFlux(e, []float64{xs[m.E1[e]], xs[m.E2[e]]}, out)
			want[m.E1[e]] += out[0]
			want[m.E2[e]] += out[1]
		}
	}

	err := chaos.Run(chaos.IPSC860(procs), func(s *chaos.Session) {
		x := s.NewArray("x", m.NNode)
		y := s.NewArray("y", m.NNode)
		x.FillByGlobal(m.InitialState)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", m.NEdge())
		e2 := s.NewIntArray("end_pt2", m.NEdge())
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })

		g := s.Construct(m.NNode, chaos.GeoColInput{Link1: e1, Link2: e2})
		dec, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: chaos.MethodRSB}, procs)
		if err != nil {
			t.Error(err)
			return
		}
		s.Redistribute(dec, []*chaos.Array{x, y}, nil)

		loop := s.NewLoop("edge-sweep", m.NEdge(),
			[]chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
			mesh.EulerFlops, mesh.EulerFlux)
		loop.PartitionIterations(chaos.AlmostOwnerComputes)
		for it := 0; it < iters; it++ {
			loop.Execute()
		}

		// The inspector must run once and be reused thereafter.
		hits, misses := s.Reg.Stats()
		if misses != 1 || hits != iters-1 {
			t.Errorf("reuse stats (hits=%d, misses=%d), want (%d, 1)", hits, misses, iters-1)
		}
		// Executor time must have been charged on the virtual clock.
		if s.TimerMax(chaos.TimerExecutor) <= 0 {
			t.Error("executor charged no virtual time")
		}
		for i, gidx := range y.MyGlobals() {
			if math.Abs(y.Data[i]-want[gidx]) > 1e-9*math.Max(1, math.Abs(want[gidx])) {
				t.Errorf("y[%d] = %v, want %v", gidx, y.Data[i], want[gidx])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosbenchCellSmoke runs one scaled-down cell of the experiment
// harness behind cmd/chaosbench — hand-coded and compiler-driven, with
// and without schedule reuse — so the benchmark binary's code path is
// exercised by tier-1. Reuse must never be slower than re-inspection on
// a static mesh.
func TestChaosbenchCellSmoke(t *testing.T) {
	w := experiments.MeshWorkload(200)
	base := experiments.Config{
		Procs: 4, Workload: w, Spec: chaos.PartitionSpec{Method: chaos.MethodRCB}, Iters: 4,
	}

	withReuse := base
	withReuse.Reuse = true
	phReuse, err := experiments.Run(withReuse)
	if err != nil {
		t.Fatal(err)
	}
	phNone, err := experiments.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if phReuse.Total() <= 0 || phNone.Total() <= 0 {
		t.Fatalf("experiment cells charged no virtual time: %+v %+v", phReuse, phNone)
	}
	if phReuse.Inspector > phNone.Inspector {
		t.Errorf("reuse inspector time %v exceeds no-reuse %v", phReuse.Inspector, phNone.Inspector)
	}

	compiler := withReuse
	compiler.Compiler = true
	phComp, err := experiments.Run(compiler)
	if err != nil {
		t.Fatal(err)
	}
	if phComp.Total() <= 0 {
		t.Error("compiler-driven cell charged no virtual time")
	}
}
