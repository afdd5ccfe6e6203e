package partition

import (
	"testing"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// distCut computes the exact weighted edge cut of a distributed
// partition (test helper; collective).
func distCut(c *machine.Ctx, g *geocol.Graph, ge *geocol.GhostExchange, part []int) float64 {
	me := c.Rank()
	lo := g.Home.Lo(me)
	gp := ge.PushInts(c, part)
	w := 0.0
	for l := 0; l < g.LocalN(me); l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			u := g.Adj[k]
			var q int
			if g.Home.Owner(u) == me {
				q = part[u-lo]
			} else {
				q = gp[ge.Slot(u)]
			}
			if q != part[l] {
				if g.EdgeW != nil {
					w += g.EdgeW[k]
				} else {
					w++
				}
			}
		}
	}
	return c.SumFloat(w) / 2
}

// TestParallelFMImprovesSeed drives the parallel FM refiner directly on
// a BLOCK-seeded partition of a distributed mesh: the cut must strictly
// improve, the part weights must stay inside the 7% balance window the
// refiner promises, and the whole run must be deterministic.
func TestParallelFMImprovesSeed(t *testing.T) {
	m := mesh.Generate(4000, 7)
	const p, nparts = 4, 4
	run := func() (before, after float64, counts []int) {
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			ge := geocol.NewGhostExchange(c, g)
			b := dist.NewBlock(g.N, nparts)
			lo := g.Home.Lo(c.Rank())
			part := make([]int, g.LocalN(c.Rank()))
			for l := range part {
				part[l] = b.Owner(lo + l)
			}
			cut0 := distCut(c, g, ge, part)
			parallelFM(c, new(fmScratch), g, ge, part, nparts, 4, 0.07)
			cut1 := distCut(c, g, ge, part)
			full := c.AllGatherInts(part)
			if c.Rank() == 0 {
				before, after = cut0, cut1
				counts = make([]int, nparts)
				for _, q := range full {
					counts[q]++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return before, after, counts
	}
	before, after, counts := run()
	if after >= before {
		t.Errorf("parallel FM did not improve the BLOCK seed: cut %.0f -> %.0f", before, after)
	}
	ideal := float64(m.NNode) / nparts
	for q, n := range counts {
		if float64(n) < ideal*0.93 || float64(n) > ideal*1.07 {
			t.Errorf("part %d holds %d vertices, outside the 7%% window around %.0f", q, n, ideal)
		}
	}
	b2, a2, counts2 := run()
	if b2 != before || a2 != after {
		t.Errorf("parallel FM is not deterministic: cuts (%.0f,%.0f) vs (%.0f,%.0f)", before, after, b2, a2)
	}
	for q := range counts {
		if counts[q] != counts2[q] {
			t.Fatalf("parallel FM part sizes differ across runs: %v vs %v", counts, counts2)
		}
	}
}

// TestKwayRefineImprovesSeed checks the serial k-way FM on a gathered
// graph: strict improvement from a BLOCK seed, the balance window
// respected, and no-op on a single part.
func TestKwayRefineImprovesSeed(t *testing.T) {
	m := mesh.Generate(2000, 5)
	var f *geocol.Full
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1, m.E2))
		f = g.Gather(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	const nparts = 4
	b := dist.NewBlock(f.N, nparts)
	part := make([]int, f.N)
	for v := range part {
		part[v] = b.Owner(v)
	}
	before := CutEdges(f.XAdj, f.Adj, part)
	kwayRefine(new(kwayScratch), f.XAdj, f.Adj, nil, nil, part, nparts, 8, 0.07)
	after := CutEdges(f.XAdj, f.Adj, part)
	if after >= before {
		t.Errorf("kwayRefine did not improve the BLOCK seed: cut %d -> %d", before, after)
	}
	counts := make([]int, nparts)
	for _, q := range part {
		counts[q]++
	}
	ideal := float64(f.N) / nparts
	for q, n := range counts {
		if float64(n) < ideal*0.93 || float64(n) > ideal*1.07 {
			t.Errorf("part %d holds %d vertices, outside the 7%% window around %.0f", q, n, ideal)
		}
	}

	// nparts=1: no boundary, no moves, no panic.
	one := make([]int, f.N)
	kwayRefine(new(kwayScratch), f.XAdj, f.Adj, nil, nil, one, 1, 2, 0.07)
	for v, q := range one {
		if q != 0 {
			t.Fatalf("kwayRefine invented a part for vertex %d: %d", v, q)
		}
	}
}

// TestVCycleRefineNotWorse pins the partition-preserving V-cycle's
// contract: it starts from the default pipeline's (deterministic)
// result and every level of its refinement can only keep or improve
// the cut, so MULTILEVEL with VCycle must never cut more edges than
// without. Balance must hold as usual.
func TestVCycleRefineNotWorse(t *testing.T) {
	m := mesh.Generate(6000, 3)
	const p, nparts = 4, 4
	cutAndCounts := func(ml Multilevel) (int, []int) {
		var cut int
		var counts []int
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			full := c.AllGatherInts(ml.Partition(c, g, nparts))
			f := g.Gather(c)
			if c.Rank() == 0 {
				cut = CutEdges(f.XAdj, f.Adj, full)
				counts = make([]int, nparts)
				for _, q := range full {
					counts[q]++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cut, counts
	}
	plain, _ := cutAndCounts(Multilevel{})
	vcycle, counts := cutAndCounts(Multilevel{VCycle: true})
	t.Logf("default cut %d, with V-cycle refinement %d", plain, vcycle)
	if vcycle > plain {
		t.Errorf("V-cycle refinement worsened the cut: %d -> %d", plain, vcycle)
	}
	ideal := m.NNode / nparts
	for q, n := range counts {
		if n < ideal*9/10 || n > ideal*11/10 {
			t.Errorf("part %d holds %d vertices, ideal %d", q, n, ideal)
		}
	}
}

// TestRestrictedMatchingPreservesParts checks the V-cycle ladder's
// foundation: with matching restricted to same-part pairs, every
// coarse cluster is part-pure, so restricting and then projecting the
// partition through the ladder reproduces it exactly.
func TestRestrictedMatchingPreservesParts(t *testing.T) {
	m := mesh.Generate(3000, 11)
	const p, nparts = 4, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		b := dist.NewBlock(g.N, nparts)
		lo := g.Home.Lo(c.Rank())
		part := make([]int, g.LocalN(c.Rank()))
		for l := range part {
			part[l] = b.Owner(lo + l)
		}
		ar := &arena{}
		levels, _, _ := buildLadder(c, ar, g, 512, 0, 42, part)
		if len(levels) == 0 {
			panic("restricted ladder built no levels")
		}
		cpart := part
		for _, lv := range levels {
			cpart = restrictPart(c, &ar.proj, lv.fine, lv.cmap, lv.coarse.Home, cpart)
		}
		for i := len(levels) - 1; i >= 0; i-- {
			lv := levels[i]
			cpart = projectPart(c, &ar.proj, lv.fine, lv.cmap, lv.coarse.Home, cpart)
		}
		for l := range part {
			if cpart[l] != part[l] {
				panic("restricted ladder did not preserve the partition")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
