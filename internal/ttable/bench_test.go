package ttable

import (
	"testing"

	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// BenchmarkHotResolve is the translation-table dereference of one Euler
// inspection on the paper's 10K mesh over 8 ranks: every rank resolves
// the far endpoints of the edges whose near endpoint it owns, through
// one recycled Workspace. Steady state allocates only what the two
// exchanges box.
func BenchmarkHotResolve(b *testing.B) {
	m := mesh.Generate(10000, 1993)
	const p = 8
	owner := m.Slabs(p)
	b.ReportAllocs()
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		tab := Build(c, m.NNode, myGlobals(owner, c.Rank()))
		var refs []int
		for e, v := range m.E1 {
			if owner[v] == c.Rank() {
				refs = append(refs, m.E2[e])
			}
		}
		var ws Workspace
		tab.ResolveInto(c, &ws, refs) // warm the buffers
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier() // nobody allocates ahead of the reset
		for i := 0; i < b.N; i++ {
			tab.ResolveInto(c, &ws, refs)
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
