package partition

import (
	"fmt"
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/xrand"
)

// fingerprintColdWarm runs one cold PartitionLadder plus two warm
// Repartition epochs (each warm epoch perturbs the edge list
// deterministically) and returns a per-epoch fingerprint: the edge cut
// and an order-sensitive hash of the global partition vector. The
// fingerprints pin the exact move sequences of the cold V-cycle and of
// ladder-reusing warm refinement.
//
// With reuseArena false the retained scratch arena is discarded before
// every warm epoch, so each Repartition rebuilds its buffers from
// scratch — comparing against the reusing run proves buffer reuse
// cannot leak state between epochs.
func fingerprintColdWarm(t *testing.T, reuseArena bool) [3]string {
	t.Helper()
	m := mesh.Generate(4000, 7)
	const p = 4
	ml := Multilevel{Seed: 42}
	var out [3]string
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		part, ld := ml.PartitionLadder(c, g, p)
		fp := fingerprint(c, g, part)
		if c.Rank() == 0 {
			out[0] = fp
		}
		for epoch := 1; epoch <= 2; epoch++ {
			e1, e2 := perturbEdges(m, epoch)
			gNew := geocol.Build(c, m.NNode, geocol.WithLink(e1[elo:ehi], e2[elo:ehi]))
			if !reuseArena {
				ld.ar = nil // force a pristine arena for this epoch
			}
			part = ml.Repartition(c, gNew, p, ld, part)
			fp := fingerprint(c, gNew, part)
			if c.Rank() == 0 {
				out[epoch] = fp
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// perturbEdges rewires a deterministic ~2% of the mesh edges.
func perturbEdges(m *mesh.Mesh, epoch int) (e1, e2 []int) {
	e1 = append([]int(nil), m.E1...)
	e2 = append([]int(nil), m.E2...)
	n := len(e1)
	for i := 0; i < n/50; i++ {
		j := int(xrand.Hash64(uint64(epoch)<<32|uint64(i)) % uint64(n))
		e2[j] = int(xrand.Hash64(uint64(epoch)<<40|uint64(i)+1) % uint64(m.NNode))
	}
	return e1, e2
}

// fingerprint gathers the global partition and folds it into
// "cut=N hash=H". Collective.
func fingerprint(c *machine.Ctx, g *geocol.Graph, part []int) string {
	full := c.AllGatherInts(part)
	f := g.GatherTo(c, machine.AllRanks)
	cut := CutEdges(f.XAdj, f.Adj, full)
	h := uint64(14695981039346656037)
	for _, p := range full {
		h = (h ^ uint64(p)) * 1099511628211
	}
	return fmt.Sprintf("cut=%d hash=%x", cut, h)
}

// TestArenaReuseBitIdentical is the bit-identity gate of the scratch
// arenas: a cold partition followed by two warm repartition epochs
// must produce byte-for-byte identical partitions whether the warm
// epochs reuse the cold run's arena (steady state: buffers carry
// arbitrary stale contents) or rebuild pristine buffers every epoch.
// Any scratch buffer whose stale contents influence a single move
// would break this.
func TestArenaReuseBitIdentical(t *testing.T) {
	reused := fingerprintColdWarm(t, true)
	fresh := fingerprintColdWarm(t, false)
	t.Logf("fingerprints: %v", reused)
	if reused != fresh {
		t.Errorf("arena reuse changed the result:\n  reused: %v\n  fresh:  %v", reused, fresh)
	}
}
