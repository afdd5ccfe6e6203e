package partition

import (
	"testing"

	"chaos/internal/csr"
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/xrand"
)

// The BenchmarkHot* family measures the STEADY STATE of the
// arena-backed hot paths: every benchmark warms its scratch once before
// the timer, so allocs/op reports exactly what a warm repartition epoch
// pays. The serial kernels (KL refine, k-way FM) and the distributed FM
// refiner must report 0 allocs/op — their scratch is entirely
// arena-owned. The distributed benchmarks move their rows by ownership
// transfer out of arena buffers (scratch.Rows), so what they still
// allocate is what a caller keeps — cmap, part vectors, exchange
// patterns, freshly allocated by design — plus one small result per
// scalar all-gather; it is nonzero but constant, and the bench-gate
// baseline (BENCH_BASELINE.json) pins all of these so any per-iteration
// allocation sneaking back into a hot path fails CI.

// hotSubgraph gathers the 21952-node mesh into a serial subgraph with a
// deterministic half/half side seed.
func hotSubgraph(tb testing.TB) (*subgraph, []bool) {
	tb.Helper()
	m := bigMesh()
	var f *csr.Graph
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1, m.E2))
		f = g.GatherTo(c, machine.AllRanks)
	})
	if err != nil {
		tb.Fatal(err)
	}
	verts := make([]int, f.Len())
	for i := range verts {
		verts[i] = i
	}
	sg := induce(new(csr.Scratch), f, verts)
	side := make([]bool, sg.Len())
	for i := range side {
		side[i] = i < sg.Len()/2
	}
	return sg, side
}

// BenchmarkHotKLRefine is the serial 2-way KL/FM kernel at steady
// state: one full klRefineN sweep over the 21952-node mesh per op,
// restarted from the same seed side each time. Must be 0 allocs/op.
func BenchmarkHotKLRefine(b *testing.B) {
	sg, side0 := hotSubgraph(b)
	target := sg.totalWeight() * 0.5
	side := make([]bool, len(side0))
	var s klScratch
	copy(side, side0)
	klRefineN(&s, sg, side, target, 2) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(side, side0)
		klRefineN(&s, sg, side, target, 2)
	}
}

// BenchmarkHotKwayRefine is the serial k-way FM kernel at steady state:
// one 8-part refinement of the 21952-node mesh from the same BLOCK seed
// each op. Must be 0 allocs/op.
func BenchmarkHotKwayRefine(b *testing.B) {
	sg, _ := hotSubgraph(b)
	const nparts = 8
	part0 := make([]int, sg.Len())
	for v := range part0 {
		part0[v] = v * nparts / sg.Len()
	}
	part := make([]int, sg.Len())
	var s kwayScratch
	copy(part, part0)
	kwayRefine(&s, &sg.Graph, part, nparts, 4, 0.07) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(part, part0)
		kwayRefine(&s, &sg.Graph, part, nparts, 4, 0.07)
	}
}

// BenchmarkHotDistMatch is one distributed heavy-edge matching plus
// coarse numbering per op on a 4-rank machine, scratch warm. The
// remaining allocs/op are the retained cmap and AllGatherInt's result,
// one each per rank.
func BenchmarkHotDistMatch(b *testing.B) {
	m := bigMesh()
	const p = 4
	b.ReportAllocs()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		ge := geocol.NewGhostExchange(c, g)
		var s matchScratch
		for warm := 0; warm < 2; warm++ { // an op lays rows five times: both slabs see every size
			match := distHeavyEdgeMatch(c, &s, g, ge, 0, 42)
			numberCoarse(c, &s, g, match)
		}
		c.SumInt(0) // barrier: all ranks warmed before the timer resets
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			match := distHeavyEdgeMatch(c, &s, g, ge, 0, 42)
			numberCoarse(c, &s, g, match)
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotWarmRepartition is the tentpole's end-to-end steady
// state: one warm Repartition epoch per op off a retained ladder (and
// its arena) on a 4-rank machine, alternating between two perturbed
// versions of the 4000-node mesh. Cold-run and graph-construction costs
// sit outside the timer; what remains is the warm path the
// Repartitioner drives every epoch — its allocs/op is what the epoch
// hands back or keeps (part vectors, the new finest level's exchange
// pattern) plus rank 0's gathered coarsest graph, pinned by the gate.
func BenchmarkHotWarmRepartition(b *testing.B) {
	m := mesh.Generate(4000, 7)
	const p = 4
	ml := Multilevel{Seed: 42}
	b.ReportAllocs()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		part, ld := ml.PartitionLadder(c, g, p)
		if ld == nil {
			panic("warm-repartition bench: cold run retained no ladder")
		}
		var gNew [2]*geocol.Graph
		for epoch := 0; epoch < 2; epoch++ {
			e1, e2 := perturbEdges(m, epoch+1)
			gNew[epoch] = geocol.Build(c, m.NNode, geocol.WithLink(e1[elo:ehi], e2[elo:ehi]))
		}
		for warm := 0; warm < 2; warm++ { // both graphs, and both slabs of every row builder
			part = ml.Repartition(c, gNew[warm], p, ld, part)
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			part = ml.Repartition(c, gNew[i%2], p, ld, part)
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// coldLattice is the repository benchmark's partition_cold input: a
// renumbered 16³ lattice (4 096 nodes, 22 800 edges), k = 8.
func coldLattice() *mesh.Mesh { return mesh.GenerateLattice(16, 16, 16, 1993) }

// benchColdMultilevel is one cold run per op — GeoCoL CONSTRUCT with
// LINK plus MULTILEVEL into 8 parts on p ranks of the iPSC/860 model,
// every rank holding a block of the edge list — the calls the
// partition_cold workload makes. Nothing is warmed: a cold run creates
// its arena, so allocs/op is what a first-time caller pays.
func benchColdMultilevel(b *testing.B, p int) {
	m := coldLattice()
	edges := dist.NewBlock(m.NEdge(), p)
	b.ReportAllocs()
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		lo, hi := edges.Lo(c.Rank()), edges.Hi(c.Rank())
		c.SumInt(0)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[lo:hi], m.E2[lo:hi]))
			Multilevel{}.PartitionLadder(c, g, 8)
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotColdMultilevelSerial is the cold serial V-cycle on one
// rank: one coarsening ladder over the gathered graph, the
// recursive-bisection solve of its coarsest level, and k-way FM at
// every level back up.
func BenchmarkHotColdMultilevelSerial(b *testing.B) { benchColdMultilevel(b, 1) }

// BenchmarkHotColdMultilevelDist8 is the cold distributed V-cycle on 8
// ranks: ghost exchanges, matching, coarse assembly, the gathered
// coarse solve with its k-way polish, projection and parallel FM.
func BenchmarkHotColdMultilevelDist8(b *testing.B) { benchColdMultilevel(b, 8) }

// randomGraph is service.LoadGraph's shape drawn from xrand: a ring
// through all n vertices plus uniformly random non-loop edges, n*degree/2
// edges in all.
func randomGraph(n, degree int, seed uint64) (e1, e2 []int) {
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		e1, e2 = append(e1, i), append(e2, (i+1)%n)
	}
	for len(e1) < n*degree/2 {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			e1, e2 = append(e1, a), append(e2, b)
		}
	}
	return e1, e2
}

// BenchmarkHotParallelFM is the distributed FM refiner at steady state:
// one 4-pass refinement per op on a 4-rank machine of an 8-part
// partition of a 4 000-vertex random degree-6 graph, restarted each op
// from the same projected partition — a cold run's answer restricted to
// the first coarse level and projected back, the shape of partition a
// finest-level refinement starts from. Must be 0 allocs/op.
func BenchmarkHotParallelFM(b *testing.B) {
	const n, p, nparts = 4000, 4, 8
	e1, e2 := randomGraph(n, 6, 1993)
	edges := dist.NewBlock(len(e1), p)
	b.ReportAllocs()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		lo, hi := edges.Lo(c.Rank()), edges.Hi(c.Rank())
		g := geocol.Build(c, n, geocol.WithLink(e1[lo:hi], e2[lo:hi]))
		part, ld := Multilevel{Seed: 42}.PartitionLadder(c, g, nparts)
		if ld == nil {
			panic("parallel-FM bench: cold run retained no ladder")
		}
		lv, proj := ld.levels[0], &ld.ar.proj
		start := projectPart(c, proj, lv.fine, lv.cmap, lv.coarse.Home, restrictPart(c, proj, lv.fine, lv.cmap, lv.coarse.Home, part))
		var s fmScratch
		for warm := 0; warm < 2; warm++ { // both slabs of every row builder
			copy(part, start)
			parallelFM(c, &s, lv.fine, lv.ge, part, nparts, 4, 0.07)
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			copy(part, start)
			parallelFM(c, &s, lv.fine, lv.ge, part, nparts, 4, 0.07)
		}
		c.SumInt(0)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
