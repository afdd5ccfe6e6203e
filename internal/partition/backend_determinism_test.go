package partition

import (
	"testing"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// partitionOn partitions m into nparts with the named registry method
// on a p-rank machine under the given backend and returns the full
// partition vector (gathered on rank 0). The graph carries both LINK
// and GEOMETRY so every registry method can run.
func partitionOn(t *testing.T, m *mesh.Mesh, method string, p, nparts int, backend machine.Backend) []int {
	t.Helper()
	sp := Spec{Method: Method(method)}
	if method == "MULTILEVEL" {
		sp.Seed = 12345
	}
	cfg := machine.IPSC860(p)
	cfg.Backend = backend
	cfg.Seed = 42
	var full []int
	err := machine.Run(cfg, func(c *machine.Ctx) {
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
		t.Fatalf("%s P=%d %v: %v", method, p, backend, err)
	}
	if len(full) != m.NNode {
		t.Fatalf("%s P=%d %v: partition has %d entries, want %d", method, p, backend, len(full), m.NNode)
	}
	for v, x := range full {
		if x < 0 || x >= nparts {
			t.Fatalf("%s P=%d %v: vertex %d assigned to part %d (nparts=%d)", method, p, backend, v, x, nparts)
		}
	}
	return full
}

// TestBackendDeterminismPin is the determinism pin for the Real
// backend: for every registry method at P in {1,2,4,8} with fixed
// seeds, the Real backend must produce a partition bit-identical to
// the Simulated backend's, and two consecutive Real runs must agree
// with each other. Both properties follow from the rendezvous
// aggregating contributions in rank order regardless of host
// scheduling; this test pins that no backend-conditional code path
// (payload cloning, slot yielding, per-rank RNG splitting) breaks it.
func TestBackendDeterminismPin(t *testing.T) {
	m := mesh.Generate(600, 5) // small enough for -short, still 3D
	const nparts = 4
	for _, method := range Names() {
		for _, p := range []int{1, 2, 4, 8} {
			sim := partitionOn(t, m, method, p, nparts, machine.Simulated)
			real1 := partitionOn(t, m, method, p, nparts, machine.Real)
			real2 := partitionOn(t, m, method, p, nparts, machine.Real)
			for v := range sim {
				if real1[v] != sim[v] {
					t.Errorf("%s P=%d: real backend diverges from simulated at vertex %d: %d vs %d",
						method, p, v, real1[v], sim[v])
					break
				}
			}
			for v := range real1 {
				if real2[v] != real1[v] {
					t.Errorf("%s P=%d: two real runs disagree at vertex %d: %d vs %d",
						method, p, v, real2[v], real1[v])
					break
				}
			}
		}
	}
}
