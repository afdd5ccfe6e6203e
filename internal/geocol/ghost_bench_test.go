package geocol

import (
	"testing"

	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// BenchmarkHotGhostExchange measures the steady state of the ghost
// exchanges on a 4-rank mesh: one dense push plus one sparse
// incremental update per op, every destination buffer reused. Both
// send out of buffers the pattern or its scratch keeps, by ownership
// transfer, so on the Simulated backend an op allocates nothing; the
// bench-gate baseline pins that.
func BenchmarkHotGhostExchange(b *testing.B) {
	m := mesh.Generate(21000, 11)
	const p = 4
	b.ReportAllocs()
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := Build(c, m.NNode, WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		ge := NewGhostExchange(c, g)
		localN := g.LocalN(c.Rank())
		vals := make([]int, localN)
		for l := range vals {
			vals[l] = l
		}
		changed := make([]bool, localN)
		for l := 0; l < localN; l += 64 {
			changed[l] = true
		}
		var ghost, touched []int
		for warm := 0; warm < 2; warm++ { // the buffers, and both slabs of the update's rows
			ghost = ge.PushIntsInto(c, vals, ghost)
			if tc := ge.UpdateIntsTouchedInto(c, vals, changed, ghost, touched); tc != nil {
				touched = tc
			}
		}
		c.SumInt(0) // barrier: all ranks warmed before the timer resets
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			ghost = ge.PushIntsInto(c, vals, ghost)
			if tc := ge.UpdateIntsTouchedInto(c, vals, changed, ghost, touched); tc != nil {
				touched = tc
			}
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
