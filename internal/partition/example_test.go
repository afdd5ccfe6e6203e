package partition_test

import (
	"fmt"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
)

// ExampleMultilevel partitions a 3000-node unstructured mesh into four
// parts on a four-rank simulated machine, with the coarsening floor
// and the distributed-path threshold tuned away from their defaults
// (CoarsenTo 50 instead of 100, ParallelThreshold 1024 instead of
// 2048, so the distributed V-cycle engages on this small graph). Every
// stage — distributed matching, contraction, the gathered serial
// solve, and the parallel FM refinement — is deterministic, so the
// edge cut and part sizes are stable across runs and hosts, which is
// what lets this example pin its output.
func ExampleMultilevel() {
	m := mesh.Generate(3000, 5)
	const p, nparts = 4, 4
	ml := partition.Multilevel{CoarsenTo: 50, ParallelThreshold: 1024}
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		part := c.AllGatherInts(ml.Partition(c, g, nparts))
		f := g.GatherTo(c, 0)
		if c.Rank() == 0 {
			counts := make([]int, nparts)
			for _, q := range part {
				counts[q]++
			}
			fmt.Printf("%d nodes in %d parts: sizes %v, cut %d\n",
				m.NNode, nparts, counts, partition.CutEdges(f.XAdj, f.Adj, part))
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: 2744 nodes in 4 parts: sizes [723 675 644 702], cut 1211
}
