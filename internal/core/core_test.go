package core

import (
	"math"
	"testing"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/partition"
	"chaos/internal/xrand"
)

// gridMesh builds the edge list of a gx × gy grid.
func gridMesh(gx, gy int) (e1, e2 []int) {
	for v := 0; v < gx*gy; v++ {
		x, y := v%gx, v/gx
		if x+1 < gx {
			e1 = append(e1, v)
			e2 = append(e2, v+1)
		}
		if y+1 < gy {
			e1 = append(e1, v)
			e2 = append(e2, v+gx)
		}
	}
	return
}

// perIter makes a kernel of a per-iteration body: for each local
// iteration of the step, f(iter, in, out) sees the iteration's gathered
// operands and fills its contributions, in slices whose length is their
// capacity, and the kernel combines them before the next iteration.
func perIter(f func(iter int, in, out []float64)) Kernel {
	return KernelFunc(func(st *Strip) {
		nR, nW := len(st.Reads), len(st.Writes)
		in, out := make([]float64, nR), make([]float64, nW)
		for b, iter := range st.Iters {
			for j := range st.Reads {
				in[j] = st.Reads[j].At(b)
			}
			f(iter, in[:nR:nR], out[:nW:nW])
			for k := range st.Writes {
				st.Writes[k].Combine(b, out[k])
			}
		}
	})
}

// edgeKernel is the paper's L2 body: two reductions per edge.
var edgeKernel = perIter(func(_ int, in, out []float64) {
	x1, x2 := in[0], in[1]
	out[0] = x1*x2 + 1 // f
	out[1] = x1 - x2   // g
})

// serialL2 computes the L2 reference result.
func serialL2(n int, e1, e2 []int, xv []float64) []float64 {
	y := make([]float64, n)
	for i := range e1 {
		x1, x2 := xv[e1[i]], xv[e2[i]]
		y[e1[i]] += x1*x2 + 1
		y[e2[i]] += x1 - x2
	}
	return y
}

func xValue(g int) float64 { return math.Sin(float64(g)*0.7) + 2 }

// buildEdgeLoop declares x, y, the edge indirection arrays and the L2
// loop on a session.
func buildEdgeLoop(s *Session, n int, e1, e2 []int) (*Array, *Array, *IntArray, *IntArray, *Loop) {
	x := s.NewArray("x", n)
	y := s.NewArray("y", n)
	x.FillByGlobal(xValue)
	y.FillByGlobal(func(int) float64 { return 0 })
	nedge := len(e1)
	ia := s.NewIntArray("end_pt1", nedge)
	ib := s.NewIntArray("end_pt2", nedge)
	ia.FillByGlobal(func(g int) int { return e1[g] })
	ib.FillByGlobal(func(g int) int { return e2[g] })
	loop := s.NewLoop("L2", nedge,
		[]Read{{x, ia}, {x, ib}},
		[]Write{{y, ia, Add}, {y, ib, Add}},
		4, edgeKernel)
	return x, y, ia, ib, loop
}

// checkY compares a distributed y against the serial reference.
func checkY(t *testing.T, y *Array, want []float64, label string) {
	t.Helper()
	for i, g := range y.MyGlobals() {
		if math.Abs(y.Data[i]-want[g]) > 1e-9*(1+math.Abs(want[g])) {
			t.Errorf("%s: y[%d] = %v, want %v", label, g, y.Data[i], want[g])
		}
	}
}

func TestEdgeLoopBlockDistribution(t *testing.T) {
	const gx, gy, p = 8, 8, 4
	e1, e2 := gridMesh(gx, gy)
	want := func() []float64 {
		xv := make([]float64, gx*gy)
		for g := range xv {
			xv[g] = xValue(g)
		}
		return serialL2(gx*gy, e1, e2, xv)
	}()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		_, y, _, _, loop := buildEdgeLoop(s, gx*gy, e1, e2)
		loop.Execute()
		checkY(t, y, want, "block")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAssignLoopL1(t *testing.T) {
	// Figure 1 L1: y(ia(i)) = x(ib(i)) + x(ic(i)), no dependencies.
	const n, nIter, p = 30, 15, 3
	rng := xrand.New(3)
	iaV := rng.Perm(n)[:nIter] // distinct targets (single assignment)
	ibV := make([]int, nIter)
	icV := make([]int, nIter)
	for i := range ibV {
		ibV[i] = rng.Intn(n)
		icV[i] = rng.Intn(n)
	}
	want := make([]float64, n)
	for g := range want {
		want[g] = -1
	}
	for i := 0; i < nIter; i++ {
		want[iaV[i]] = xValue(ibV[i]) + xValue(icV[i])
	}
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x := s.NewArray("x", n)
		y := s.NewArray("y", n)
		x.FillByGlobal(xValue)
		y.FillByGlobal(func(int) float64 { return -1 })
		ia := s.NewIntArray("ia", nIter)
		ib := s.NewIntArray("ib", nIter)
		ic := s.NewIntArray("ic", nIter)
		ia.FillByGlobal(func(g int) int { return iaV[g] })
		ib.FillByGlobal(func(g int) int { return ibV[g] })
		ic.FillByGlobal(func(g int) int { return icV[g] })
		loop := s.NewLoop("L1", nIter,
			[]Read{{x, ib}, {x, ic}},
			[]Write{{y, ia, Assign}},
			1, perIter(func(_ int, in, out []float64) { out[0] = in[0] + in[1] }))
		loop.Execute()
		checkY(t, y, want, "L1")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScheduleReuseAcrossIterations(t *testing.T) {
	const gx, gy, p = 6, 6, 4
	e1, e2 := gridMesh(gx, gy)
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		s := NewSession(c)
		_, _, _, _, loop := buildEdgeLoop(s, gx*gy, e1, e2)
		loop.Execute()
		inspAfterFirst := s.Timer(TimerInspector)
		for it := 0; it < 10; it++ {
			loop.Execute()
		}
		if got := s.Timer(TimerInspector); got != inspAfterFirst {
			t.Errorf("inspector re-ran despite reuse: %v -> %v", inspAfterFirst, got)
		}
		hits, misses := s.Reg.Stats()
		if hits != 10 || misses != 1 {
			t.Errorf("reuse stats = (%d hits, %d misses), want (10, 1)", hits, misses)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndirectionWriteForcesReinspection(t *testing.T) {
	const gx, gy, p = 6, 6, 2
	e1, e2 := gridMesh(gx, gy)
	n := gx * gy
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y, ia, _, loop := buildEdgeLoop(s, n, e1, e2)
		loop.Execute()
		_, missesBefore := s.Reg.Stats()
		// Rewrite end_pt1 (same values, but the runtime cannot know).
		ia.FillByGlobal(func(g int) int { return e1[g] })
		loop.Execute()
		if _, misses := s.Reg.Stats(); misses != missesBefore+1 {
			t.Error("inspector did not re-run after indirection write")
		}
		// Correctness after re-inspection: run once on a fresh y.
		y.FillByGlobal(func(int) float64 { return 0 })
		loop.Execute()
		xv := make([]float64, n)
		for g := range xv {
			xv[g] = xValue(g)
		}
		want := serialL2(n, e1, e2, xv)
		// Three executions accumulated into y? No: y was zeroed
		// before the last one, so one execution's worth.
		checkY(t, y, want, "after reinspect")
		_ = x
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFullPipelineRCB(t *testing.T) {
	// Phases A-E: construct GeoCoL from geometry, partition with RCB,
	// redistribute, partition iterations, execute; compare to serial.
	const gx, gy, p = 8, 8, 4
	n := gx * gy
	e1, e2 := gridMesh(gx, gy)
	xv := make([]float64, n)
	for g := range xv {
		xv[g] = xValue(g)
	}
	want := serialL2(n, e1, e2, xv)
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y, ia, ib, loop := buildEdgeLoop(s, n, e1, e2)
		xc := s.NewArray("xc", n)
		yc := s.NewArray("yc", n)
		xc.FillByGlobal(func(g int) float64 { return float64(g % gx) })
		yc.FillByGlobal(func(g int) float64 { return float64(g / gx) })

		g := s.Construct(n, GeoColInput{Geometry: []*Array{xc, yc}})
		m, err := s.SetPartitioning(g, partition.Spec{Method: partition.MethodRCB}, p)
		if err != nil {
			t.Error(err)
			return
		}
		s.Redistribute(m, []*Array{x, y}, nil)
		loop.PartitionIterations(iterpart.AlmostOwnerComputes)
		loop.Execute()
		checkY(t, y, want, "pipeline-rcb")

		// All phase timers must be populated.
		for _, name := range []string{TimerGraphGen, TimerPartition, TimerRemap, TimerInspector, TimerExecutor} {
			if s.Timer(name) <= 0 {
				t.Errorf("timer %q empty", name)
			}
		}
		_ = ia
		_ = ib
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFullPipelineRSB(t *testing.T) {
	const gx, gy, p = 8, 8, 4
	n := gx * gy
	e1, e2 := gridMesh(gx, gy)
	xv := make([]float64, n)
	for g := range xv {
		xv[g] = xValue(g)
	}
	want := serialL2(n, e1, e2, xv)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y, ia, ib, loop := buildEdgeLoop(s, n, e1, e2)
		g := s.Construct(n, GeoColInput{Link1: ia, Link2: ib})
		m, err := s.SetPartitioning(g, partition.Spec{Method: partition.MethodRSB}, p)
		if err != nil {
			t.Error(err)
			return
		}
		s.Redistribute(m, []*Array{x, y}, nil)
		loop.PartitionIterations(iterpart.AlmostOwnerComputes)
		loop.Execute()
		checkY(t, y, want, "pipeline-rsb")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributePreservesValues(t *testing.T) {
	const n, p = 32, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x := s.NewArray("x", n)
		x.FillByGlobal(func(g int) float64 { return float64(g * g) })
		// Partition by parity of index using a custom mapping built
		// from a trivial GeoCoL graph + BLOCK partitioner on shuffled
		// geometry; simpler: use the scatter partitioner.
		g := s.Construct(n, GeoColInput{})
		m, err := s.SetPartitioning(g, partition.Spec{Method: methodScatter}, p)
		if err != nil {
			t.Error(err)
			return
		}
		oldDAD := x.DAD()
		s.Redistribute(m, []*Array{x}, nil)
		if x.DAD().Equal(oldDAD) {
			t.Error("redistribute kept old DAD")
		}
		total := 0.0
		for _, v := range x.Data {
			total += v
		}
		sum := c.SumFloat(total)
		wantSum := 0.0
		for g := 0; g < n; g++ {
			wantSum += float64(g * g)
		}
		if math.Abs(sum-wantSum) > 1e-9 {
			t.Errorf("values lost in redistribute: %v vs %v", sum, wantSum)
		}
		for i, g := range x.MyGlobals() {
			if x.Data[i] != float64(g*g) {
				t.Errorf("element %d has %v", g, x.Data[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeAfterLoopInvalidatesSchedule(t *testing.T) {
	const gx, gy, p = 6, 6, 2
	n := gx * gy
	e1, e2 := gridMesh(gx, gy)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y, _, _, loop := buildEdgeLoop(s, n, e1, e2)
		loop.Execute()
		h0, m0 := s.Reg.Stats()
		// Remap data arrays: condition 1 must now fail.
		g := s.Construct(n, GeoColInput{})
		m, err := s.SetPartitioning(g, partition.Spec{Method: methodScatter}, p)
		if err != nil {
			t.Error(err)
			return
		}
		s.Redistribute(m, []*Array{x, y}, nil)
		loop.Execute()
		h1, m1 := s.Reg.Stats()
		if h1 != h0 || m1 != m0+1 {
			t.Errorf("stats after remap = (%d,%d), want (%d,%d)", h1, m1, h0, m0+1)
		}
		// And the result is still right.
		xv := make([]float64, n)
		for g := range xv {
			xv[g] = xValue(g)
		}
		want := serialL2(n, e1, e2, xv)
		for g := range want {
			want[g] *= 2 // two executions accumulated
		}
		checkY(t, y, want, "after remap")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOps(t *testing.T) {
	const n, nIter, p = 8, 16, 2
	targets := make([]int, nIter)
	vals := make([]float64, nIter)
	for i := range targets {
		targets[i] = i % n
		vals[i] = float64((i*13)%7) - 3
	}
	cases := []struct {
		op   Reduce
		init float64
		want func(cur, v float64) float64
	}{
		{Max, math.Inf(-1), math.Max},
		{Min, math.Inf(1), math.Min},
		{Mul, 1, func(c, v float64) float64 { return c * v }},
	}
	for _, tc := range cases {
		want := make([]float64, n)
		for g := range want {
			want[g] = tc.init
		}
		for i := range targets {
			want[targets[i]] = tc.want(want[targets[i]], vals[i])
		}
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			s := NewSession(c)
			y := s.NewArray("y", n)
			y.FillByGlobal(func(int) float64 { return tc.init })
			ia := s.NewIntArray("ia", nIter)
			ia.FillByGlobal(func(g int) int { return targets[g] })
			src := s.NewArray("src", nIter)
			src.FillByGlobal(func(g int) float64 { return vals[g] })
			idx := s.NewIntArray("idx", nIter)
			idx.FillByGlobal(func(g int) int { return g })
			loop := s.NewLoop("reduce", nIter,
				[]Read{{src, idx}},
				[]Write{{y, ia, tc.op}},
				1, perIter(func(_ int, in, out []float64) { out[0] = in[0] }))
			loop.Execute()
			checkY(t, y, want, tc.op.String())
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
	}
}

func TestIterationPartitioningPolicies(t *testing.T) {
	const gx, gy, p = 6, 6, 3
	n := gx * gy
	e1, e2 := gridMesh(gx, gy)
	xv := make([]float64, n)
	for g := range xv {
		xv[g] = xValue(g)
	}
	want := serialL2(n, e1, e2, xv)
	for _, pol := range []iterpart.Policy{iterpart.AlmostOwnerComputes} {
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			s := NewSession(c)
			x, y, _, _, loop := buildEdgeLoop(s, n, e1, e2)
			g := s.Construct(n, GeoColInput{})
			m, err := s.SetPartitioning(g, partition.Spec{Method: methodScatter}, p)
			if err != nil {
				t.Error(err)
				return
			}
			s.Redistribute(m, []*Array{x, y}, nil)
			loop.PartitionIterations(pol)
			loop.Execute()
			checkY(t, y, want, pol.String())
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestPartitionIterationsReadTieGoesToFirstRead pins Phase B's
// tie-break in a loop without writes: every iteration reads one
// element of rank 1 and then one of rank 0, so the vote ties and the
// first read's owner, rank 1, must take every iteration — not the last
// read's owner, nor the lowest leading rank.
func TestPartitionIterationsReadTieGoesToFirstRead(t *testing.T) {
	const n, nIter, p = 8, 6, 2 // x is BLOCK: rank 0 owns 0..3, rank 1 owns 4..7
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x := s.NewArray("x", n)
		hi := s.NewIntArray("hi", nIter)
		lo := s.NewIntArray("lo", nIter)
		hi.FillByGlobal(func(g int) int { return n/2 + g%(n/2) })
		lo.FillByGlobal(func(g int) int { return g % (n / 2) })
		loop := s.NewLoop("reads", nIter, []Read{{x, hi}, {x, lo}}, nil, 0, edgeKernel)
		loop.PartitionIterations(iterpart.AlmostOwnerComputes)
		want := 0
		if c.Rank() == 1 {
			want = nIter
		}
		if got := len(loop.iterGl); got != want {
			t.Errorf("rank %d holds %d iterations, want %d", c.Rank(), got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimersAndReset(t *testing.T) {
	err := machine.Run(machine.IPSC860(2), func(c *machine.Ctx) {
		s := NewSession(c)
		s.timed("phase", func() { c.Flops(1000) })
		if s.Timer("phase") <= 0 {
			t.Error("timer did not accumulate")
		}
		if got := s.TimerMax("phase"); got < s.Timer("phase") {
			t.Errorf("TimerMax %v < local %v", got, s.Timer("phase"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceString(t *testing.T) {
	for r, s := range map[Reduce]string{Assign: "ASSIGN", Add: "ADD", Max: "MAX", Min: "MIN", Mul: "MUL"} {
		if r.String() != s {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
	if Reduce(99).String() == "" {
		t.Error("unknown reduce should format")
	}
}
