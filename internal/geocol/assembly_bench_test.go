package geocol

import (
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// benchAssembly times calls of an assembly routine on an 8-rank machine
// over the repository benchmark's partition_cold input (a renumbered
// 16³ lattice: 4 096 nodes, 22 800 edges), each rank holding a block of
// the edge list. op sets a rank up and returns the call to time. One
// benchmark op is callsPerOp calls, each followed by a barrier: a call
// takes about a millisecond, too short for the bench gate's 10-op runs
// to time on a busy host, and a routine that is purely local would
// otherwise let rank 0 stop the clock while the others are mid-call.
func benchAssembly(b *testing.B, op func(c *machine.Ctx, m *mesh.Mesh, e1, e2 []int) func()) {
	m := mesh.GenerateLattice(16, 16, 16, 1993)
	const p, callsPerOp = 8, 8
	edges := dist.NewBlock(m.NEdge(), p)
	b.ReportAllocs()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		lo, hi := edges.Lo(c.Rank()), edges.Hi(c.Rank())
		run := op(c, m, m.E1[lo:hi], m.E2[lo:hi])
		run() // warm any scratch
		c.SumInt(0)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N*callsPerOp; i++ {
			run()
			c.Barrier()
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

// BenchmarkHotBuildLink times CONSTRUCT with LINK: route every
// edge endpoint to its home rank and assemble the deduplicated CSR.
func BenchmarkHotBuildLink(b *testing.B) {
	benchAssembly(b, func(c *machine.Ctx, m *mesh.Mesh, e1, e2 []int) func() {
		return func() { Build(c, m.NNode, WithLink(e1, e2)) }
	})
}

// BenchmarkHotNewGhostExchange times deriving the exchange pattern of
// the lattice on a recycled GhostScratch, the way the partition arena
// does once per ladder level.
func BenchmarkHotNewGhostExchange(b *testing.B) {
	benchAssembly(b, func(c *machine.Ctx, m *mesh.Mesh, e1, e2 []int) func() {
		g := Build(c, m.NNode, WithLink(e1, e2))
		var s GhostScratch
		return func() { s.NewGhostExchange(c, g) }
	})
}

// BenchmarkHotBuildCoarse times contracting the lattice under the
// pairing v → v/2 on a recycled CoarseAssembler.
func BenchmarkHotBuildCoarse(b *testing.B) {
	benchAssembly(b, func(c *machine.Ctx, m *mesh.Mesh, e1, e2 []int) func() {
		g := Build(c, m.NNode, WithLink(e1, e2))
		ge := NewGhostExchange(c, g)
		vlo := g.Home.Lo(c.Rank())
		cmap := make([]int, g.LocalN(c.Rank()))
		for i := range cmap {
			cmap[i] = (vlo + i) / 2
		}
		var a CoarseAssembler
		return func() { a.BuildCoarse(c, g, ge, cmap, (m.NNode+1)/2) }
	})
}
