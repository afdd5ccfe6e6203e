package partition

import (
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// runParallelML partitions mesh m into nparts on a p-rank iPSC/860
// machine with MULTILEVEL and returns the maximum virtual time spent
// inside Partition across ranks plus the resulting edge cut.
func runParallelML(t *testing.T, m *mesh.Mesh, p, nparts int) (virtual float64, cut int) {
	t.Helper()
	pt, err := Lookup("MULTILEVEL")
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		t0 := c.Clock()
		part := pt.Partition(c, g, nparts)
		dt := c.MaxFloat(c.Clock() - t0)
		full := c.AllGatherInts(part)
		f := g.GatherTo(c, machine.AllRanks)
		if c.Rank() == 0 {
			virtual = dt
			cut = CutEdges(f.XAdj, f.Adj, full)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return virtual, cut
}

// TestParallelMultilevelTimeScales is the distributed ladder's scaling
// bar: on a >=20k-node mesh its virtual (simulated) partitioning time
// must strictly decrease from P=2 through P=16, while every distributed
// cut stays within 1.05x of the two-rank cut (the hill-climbing
// parallel FM of prefine.go refines the uncoarsening, and the serial
// handoff sits at the ParallelThreshold knee). The distributed time
// falls with the machine size; the serial path's replicated cost is
// flat in it by construction, so by P=16 the ladder must also beat the
// serial (P=1) time. At lower rank counts it does not: since serial
// MULTILEVEL coarsens once (solveSerial) it is the faster path up to
// P=4 and the better-cut path at every size (2.96 vs at cut 7206,
// against 4.54 vs at 7401 for P=2 and 2.93 vs at 7627 for P=8).
//
// The cuts are also bounded absolutely, since on this mesh they move
// together with details of the coarsest split (with one or sixteen
// growing trials instead of four the P=2 cut reads 8148 or 8237 and
// the relative bound above still holds): the serial cut may not exceed
// 7420 (3% above today's 7206), and no distributed cut 1.08x the
// serial one.
func TestParallelMultilevelTimeScales(t *testing.T) {
	if testing.Short() {
		t.Skip("21952-node mesh partitioned at five machine sizes")
	}
	m := mesh.Generate(21000, 11) // 28^3 lattice: 21952 nodes
	const nparts = 8
	procs := []int{1, 2, 4, 8, 16}
	times := make([]float64, len(procs))
	cuts := make([]int, len(procs))
	for i, p := range procs {
		times[i], cuts[i] = runParallelML(t, m, p, nparts)
		t.Logf("P=%d: partition %.3f virtual s, cut %d", p, times[i], cuts[i])
	}
	for i := 2; i < len(procs); i++ {
		if times[i] >= times[i-1] {
			t.Errorf("virtual partition time did not drop from P=%d (%.3fs) to P=%d (%.3fs)",
				procs[i-1], times[i-1], procs[i], times[i])
		}
	}
	last := len(procs) - 1
	if times[last] >= times[0] {
		t.Errorf("P=%d virtual time %.3fs is not below the serial path's %.3fs", procs[last], times[last], times[0])
	}
	for i := 2; i < len(procs); i++ {
		if float64(cuts[i]) > 1.05*float64(cuts[1]) {
			t.Errorf("P=%d cut %d exceeds the P=%d cut %d by more than 5%%",
				procs[i], cuts[i], procs[1], cuts[1])
		}
	}
	if cuts[0] > 7420 {
		t.Errorf("serial (P=1) cut %d exceeds 7420", cuts[0])
	}
	for i := 1; i < len(procs); i++ {
		if float64(cuts[i]) > 1.08*float64(cuts[0]) {
			t.Errorf("P=%d cut %d exceeds the serial cut %d by more than 8%%", procs[i], cuts[i], cuts[0])
		}
	}
}

// TestParallelMultilevelBalance checks the distributed path's balance:
// projection inherits the serial coarse solve's balance exactly (the
// contraction aggregates weights faithfully) and the distributed
// refinement budgets must keep every part within 10% of ideal.
func TestParallelMultilevelBalance(t *testing.T) {
	m := mesh.Generate(6000, 9)
	const p = 4
	pt, err := Lookup("MULTILEVEL")
	if err != nil {
		t.Fatal(err)
	}
	err = machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		part := c.AllGatherInts(pt.Partition(c, g, p))
		if c.Rank() == 0 {
			counts := make([]int, p)
			for _, x := range part {
				counts[x]++
			}
			ideal := m.NNode / p
			for r, n := range counts {
				if n < ideal*9/10 || n > ideal*11/10 {
					t.Errorf("part %d holds %d vertices, ideal %d", r, n, ideal)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelMultilevelDeterminism pins the collective contract on the
// parallel path: randomized tie-breaking is seeded and the handshake is
// bulk-synchronous, so the same mesh on the same machine must map
// identically on every run regardless of goroutine scheduling.
func TestParallelMultilevelDeterminism(t *testing.T) {
	m := mesh.Generate(4000, 3)
	run := func() []int {
		pt, err := Lookup("MULTILEVEL")
		if err != nil {
			t.Fatal(err)
		}
		var full []int
		err = machine.Run(machine.Zero(4), func(c *machine.Ctx) {
			eb := m.NEdge() / 4
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == 3 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			all := c.AllGatherInts(pt.Partition(c, g, 8))
			if c.Rank() == 0 {
				full = all
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return full
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel MULTILEVEL map differs across runs at vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestParallelThresholdRouting pins the dispatch rule: a negative
// ParallelThreshold forces the serial path (whose result is identical
// at any machine size), and both paths produce full, in-range part
// assignments.
func TestParallelThresholdRouting(t *testing.T) {
	m := mesh.Generate(3000, 5)
	const p, nparts = 4, 4
	for _, ml := range []Multilevel{{ParallelThreshold: -1}, {ParallelThreshold: 1}} {
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			part := ml.Partition(c, g, nparts)
			if len(part) != g.LocalN(c.Rank()) {
				panic("wrong local part length")
			}
			for _, q := range part {
				if q < 0 || q >= nparts {
					panic("part out of range")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
