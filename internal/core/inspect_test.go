package core

import (
	"runtime"
	"testing"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
)

// eulerLoop sets the paper's Euler pipeline up on m — coordinates, RCB,
// redistribution, the edge sweep with almost-owner-computes iterations
// — and returns the loop, uninspected. Collective.
func eulerLoop(c *machine.Ctx, m *mesh.Mesh) (*Loop, *Array) { return newEulerLoop(c, m, true) }

// newEulerLoop is eulerLoop with x and y redistributed together
// (aligned: one translation table, so the loop's four accesses are two
// access patterns) or one after the other (the same placement through
// a table each: four patterns).
func newEulerLoop(c *machine.Ctx, m *mesh.Mesh, aligned bool) (*Loop, *Array) {
	s := NewSession(c)
	x := s.NewArray("x", m.NNode)
	y := s.NewArray("y", m.NNode)
	x.FillByGlobal(m.InitialState)
	y.FillByGlobal(func(int) float64 { return 0 })
	e1 := s.NewIntArray("end_pt1", m.NEdge())
	e2 := s.NewIntArray("end_pt2", m.NEdge())
	e1.FillByGlobal(func(g int) int { return m.E1[g] })
	e2.FillByGlobal(func(g int) int { return m.E2[g] })
	var geom []*Array
	for i, coord := range [][]float64{m.X, m.Y, m.Z} {
		a := s.NewArray([]string{"xc", "yc", "zc"}[i], m.NNode)
		a.FillByGlobal(func(g int) float64 { return coord[g] })
		geom = append(geom, a)
	}
	g := s.Construct(m.NNode, GeoColInput{Geometry: geom})
	mp, err := s.SetPartitioning(g, partition.Spec{Method: partition.MethodRCB}, c.Procs())
	if err != nil {
		panic(err)
	}
	if aligned {
		s.Redistribute(mp, []*Array{x, y}, nil)
	} else {
		s.Redistribute(mp, []*Array{x}, nil)
		s.Redistribute(mp, []*Array{y}, nil)
	}
	loop := s.NewLoop("sweep", m.NEdge(),
		[]Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
		[]Write{{Arr: y, Ind: e1, Op: Add}, {Arr: y, Ind: e2, Op: Add}},
		mesh.EulerFlops, mesh.EulerFlux)
	loop.PartitionIterations(iterpart.AlmostOwnerComputes)
	return loop, y
}

// A re-inspection writes its reference vectors into the storage of the
// ones it replaces, and still computes the right sweep.
func TestReinspectRecyclesReferenceVectors(t *testing.T) {
	m := mesh.Generate(300, 7)
	x0 := make([]float64, m.NNode)
	for v := range x0 {
		x0[v] = m.InitialState(v)
	}
	want := make([]float64, m.NNode)
	in, out := make([]float64, 2), make([]float64, 2)
	for e := range m.E1 {
		in[0], in[1] = x0[m.E1[e]], x0[m.E2[e]]
		mesh.EulerFlux(e, in, out)
		want[m.E1[e]] += 3 * out[0]
		want[m.E2[e]] += 3 * out[1]
	}
	err := machine.Run(machine.Zero(4), func(c *machine.Ctx) {
		loop, y := eulerLoop(c, m)
		loop.Execute()
		var before []*int
		for _, ref := range loop.insp.refs {
			before = append(before, &ref[0])
		}
		loop.ExecuteNoReuse()
		loop.ExecuteNoReuse()
		if len(loop.insp.refs) != len(before) {
			t.Fatalf("%d reference vectors, had %d", len(loop.insp.refs), len(before))
		}
		for i, ref := range loop.insp.refs {
			if &ref[0] != before[i] {
				t.Errorf("rank %d: reference vector %d was reallocated", c.Rank(), i)
			}
		}
		checkY(t, y, want, "after two re-inspections")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An inspection retains its schedules and reference vectors and nothing
// of its workspace: the live heap grows by little more than the
// reference vectors (measured: 1.08x). The dereference buffers alone
// are five vectors as long as one access's, against the four reference
// vectors, so a retained workspace would more than double the growth.
func TestInspectRetainsNoWorkspace(t *testing.T) {
	m := mesh.Generate(10000, 1993)
	const p = 4
	var before, after runtime.MemStats
	refWords := make([]int, p)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		loop, _ := eulerLoop(c, m)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		loop.Inspect()
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&after)
		}
		c.Barrier()
		for _, ref := range loop.insp.refs {
			refWords[c.Rank()] += len(ref)
		}
		runtime.KeepAlive(loop)
	})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := 0
	for _, w := range refWords {
		refBytes += 8 * w
	}
	grown := int(after.HeapAlloc) - int(before.HeapAlloc)
	if grown > 3*refBytes/2 {
		t.Errorf("inspection retained %d bytes for %d bytes of reference vectors", grown, refBytes)
	}
}

// BenchmarkHotInspect is one whole back-to-back re-inspection of the
// Euler sweep (two access patterns behind its four accesses, so two
// schedule builds through the Builder the loop keeps between
// inspections, schedules and reference vectors rebuilt in place) on the
// paper's 10K mesh over 8 ranks.
func BenchmarkHotInspect(b *testing.B) { benchmarkInspect(b, true) }

// BenchmarkHotInspectDistinct is BenchmarkHotInspect with nothing to
// share: x and y hold the same placement through a translation table
// each, so all four accesses are inspected. It is the inspector as it
// was before patterns were shared, plus the pattern lookups.
func BenchmarkHotInspectDistinct(b *testing.B) { benchmarkInspect(b, false) }

func benchmarkInspect(b *testing.B, aligned bool) {
	m := mesh.Generate(10000, 1993)
	b.ReportAllocs()
	err := machine.Run(machine.IPSC860(8), func(c *machine.Ctx) {
		loop, _ := newEulerLoop(c, m, aligned)
		loop.Inspect()
		loop.Inspect() // keeps its workspace; the schedules' second request slabs
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier() // nobody allocates ahead of the reset
		for i := 0; i < b.N; i++ {
			loop.Inspect()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotExecute is one reused executor step of the Euler sweep —
// the reuse check, two gathers, the strip-mined kernel loop, two
// scatter-adds — on the paper's 53K mesh over 8 ranks, the shape of the
// repository benchmark's euler_reuse op.
func BenchmarkHotExecute(b *testing.B) {
	m := mesh.Generate(53000, 1993)
	b.ReportAllocs()
	err := machine.Run(machine.IPSC860(8), func(c *machine.Ctx) {
		loop, _ := eulerLoop(c, m)
		loop.Execute() // inspects
		loop.Execute() // the schedules' second slabs
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier() // nobody allocates ahead of the reset
		for i := 0; i < b.N; i++ {
			loop.Execute()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
