package partition

import (
	"testing"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// partitionOn partitions m into nparts with the named registry method
// on a p-rank machine and returns the full partition vector (gathered
// on rank 0). The graph carries both LINK and GEOMETRY so every
// registry method can run.
func partitionOn(t *testing.T, m *mesh.Mesh, method string, p, nparts int) []int {
	t.Helper()
	sp := Spec{Method: Method(method)}
	if method == "MULTILEVEL" {
		sp.Seed = 12345
	}
	var full []int
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		d := dist.NewBlock(m.NNode, p)
		lo, hi := d.Lo(c.Rank()), d.Hi(c.Rank())
		g := geocol.Build(c, m.NNode,
			geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]),
			geocol.WithGeometry(m.X[lo:hi], m.Y[lo:hi], m.Z[lo:hi]))
		pt, err := sp.ValidateFor(g, nparts)
		if err != nil {
			panic(err)
		}
		part := c.AllGatherInts(pt.Partition(c, g, nparts))
		if c.Rank() == 0 {
			full = part
		}
	})
	if err != nil {
		t.Fatalf("%s P=%d: %v", method, p, err)
	}
	if len(full) != m.NNode {
		t.Fatalf("%s P=%d: partition has %d entries, want %d", method, p, len(full), m.NNode)
	}
	for v, x := range full {
		if x < 0 || x >= nparts {
			t.Fatalf("%s P=%d: vertex %d assigned to part %d (nparts=%d)", method, p, v, x, nparts)
		}
	}
	return full
}

// TestRepeatedRunDeterminismPin is the run-to-run determinism pin:
// for every registry method at P in {1,2,4,8} with fixed seeds, two
// consecutive runs must produce bit-identical partitions. This follows
// from the rendezvous aggregating contributions in rank order
// regardless of host scheduling; the test pins that no code path
// (slot reuse, per-rank RNG splitting) makes a partition depend on how
// the host interleaved the ranks.
func TestRepeatedRunDeterminismPin(t *testing.T) {
	m := mesh.Generate(600, 5) // small enough for -short, still 3D
	const nparts = 4
	for _, method := range Names() {
		for _, p := range []int{1, 2, 4, 8} {
			first := partitionOn(t, m, method, p, nparts)
			second := partitionOn(t, m, method, p, nparts)
			for v := range first {
				if second[v] != first[v] {
					t.Errorf("%s P=%d: two runs disagree at vertex %d: %d vs %d",
						method, p, v, second[v], first[v])
					break
				}
			}
		}
	}
}
