package geocol

import (
	"testing"

	"chaos/internal/csr"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// TestGhostExchangePush checks the boundary-exchange pattern on a ring:
// each rank's ghosts are exactly the two vertices just outside its home
// block, and pushed values land in the right slots.
func TestGhostExchangePush(t *testing.T) {
	const n, p = 12, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		g := Build(c, n, WithLink(e1, e2))
		ge := NewGhostExchange(c, g)
		lo := g.Home.Lo(c.Rank())
		localN := g.LocalN(c.Rank())
		want := []int{(lo - 1 + n) % n, (lo + localN) % n}
		if want[0] > want[1] {
			want[0], want[1] = want[1], want[0]
		}
		if len(ge.IDs) != 2 || ge.IDs[0] != want[0] || ge.IDs[1] != want[1] {
			t.Errorf("rank %d ghosts %v, want %v", c.Rank(), ge.IDs, want)
		}

		vals := make([]int, localN)
		fvals := make([]float64, localN)
		for l := range vals {
			vals[l] = 10 * (lo + l)
			fvals[l] = 0.5 * float64(lo+l)
		}
		gi := ge.PushInts(c, vals)
		gf := ge.PushFloatsInto(c, fvals, nil)
		for i, id := range ge.IDs {
			if gi[i] != 10*id {
				t.Errorf("rank %d ghost int of %d = %d, want %d", c.Rank(), id, gi[i], 10*id)
			}
			if gf[i] != 0.5*float64(id) {
				t.Errorf("rank %d ghost float of %d = %g", c.Rank(), id, gf[i])
			}
		}

		// Incremental update: change one home value, mark it, and check
		// only it changes on the neighbors.
		changed := make([]bool, localN)
		vals[0] = -7
		changed[0] = true
		_ = ge.UpdateIntsTouchedInto(c, vals, changed, gi, nil)
		for i, id := range ge.IDs {
			want := 10 * id
			if id == g.Home.Lo(g.Home.Owner(id)) {
				want = -7 // the updated vertex is the first of its block
			}
			if gi[i] != want {
				t.Errorf("rank %d after update: ghost of %d = %d, want %d", c.Rank(), id, gi[i], want)
			}
		}

		// Monotone marks: flag the last home vertex everywhere.
		flags := make([]int, len(ge.IDs))
		marked := make([]bool, localN)
		marked[localN-1] = true
		ge.PushMarks(c, marked, flags)
		for i, id := range ge.IDs {
			want := 0
			if id == g.Home.Lo(g.Home.Owner(id))+g.LocalN(g.Home.Owner(id))-1 {
				want = 1
			}
			if flags[i] != want {
				t.Errorf("rank %d mark of %d = %d, want %d", c.Rank(), id, flags[i], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuildCoarseMatchesSerialContract pins the distributed build path
// against the serial csr.Scratch.Contract on a real mesh: contracting the
// block-distributed graph under a global clustering and gathering the
// result must agree edge-for-edge (as weighted neighbor sets; the two
// paths order adjacency differently) with contracting the gathered
// graph serially.
func TestBuildCoarseMatchesSerialContract(t *testing.T) {
	m := mesh.Generate(600, 13)
	const p = 4
	// Global clustering: pair consecutive ids (crosses every rank
	// boundary), so both paths see identical cluster membership.
	coarseN := (m.NNode + 1) / 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		eb := m.NEdge() / p
		elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == p-1 {
			ehi = m.NEdge()
		}
		g := Build(c, m.NNode, WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
		lo := g.Home.Lo(c.Rank())
		cmap := make([]int, g.LocalN(c.Rank()))
		for l := range cmap {
			cmap[l] = (lo + l) / 2
		}
		ge := NewGhostExchange(c, g)
		coarse := BuildCoarse(c, g, ge, cmap, coarseN)

		cf := coarse.Gather(c)
		f := g.Gather(c)
		if c.Rank() != 0 {
			return
		}
		gmap := make([]int, f.Len())
		for v := range gmap {
			gmap[v] = v / 2
		}
		sc := new(csr.Scratch).Contract(f, gmap, coarseN)
		sxadj, sadj, sew, sw := sc.XAdj, sc.Adj, sc.EdgeW, sc.Weights

		for cv := 0; cv < coarseN; cv++ {
			if cf.Weights[cv] != sw[cv] {
				t.Errorf("coarse vertex %d weight %g, serial %g", cv, cf.Weights[cv], sw[cv])
			}
			want := map[int]float64{}
			for k := sxadj[cv]; k < sxadj[cv+1]; k++ {
				want[sadj[k]] = sew[k]
			}
			got := map[int]float64{}
			for k := cf.XAdj[cv]; k < cf.XAdj[cv+1]; k++ {
				got[cf.Adj[k]] = cf.EdgeW[k]
			}
			if len(got) != len(want) {
				t.Fatalf("coarse vertex %d has %d neighbors, serial %d", cv, len(got), len(want))
			}
			for u, w := range want {
				if got[u] != w {
					t.Errorf("coarse edge (%d,%d) weight %g, serial %g", cv, u, got[u], w)
				}
			}
		}
		deg := 0
		for cv := 0; cv < coarseN; cv++ {
			deg += sxadj[cv+1] - sxadj[cv]
		}
		if coarse.NEdges != deg/2 {
			t.Errorf("coarse NEdges %d, serial %d", coarse.NEdges, deg/2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuildCoarseAggregatesWeights checks LOAD aggregation across rank
// boundaries: coarse vertex weights are the sums of their members'
// weights even when the members live on different ranks.
func TestBuildCoarseAggregatesWeights(t *testing.T) {
	const n, p = 8, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		lo := c.Rank() * 2
		w := []float64{float64(lo + 1), float64(lo + 2)}
		g := Build(c, n, WithLink(e1, e2), WithLoad(w))
		// Cluster vertices {1,2}, {3,4}, {5,6}, {7,0}: every cluster
		// spans a rank boundary.
		cmap := make([]int, 2)
		for l := 0; l < 2; l++ {
			cmap[l] = ((lo + l + n - 1) % n) / 2
		}
		ge := NewGhostExchange(c, g)
		coarse := BuildCoarse(c, g, ge, cmap, n/2)
		cf := coarse.Gather(c)
		if c.Rank() == 0 {
			// Cluster k = {2k+1, 2k+2 mod n}; weight of vertex v is v+1.
			for k := 0; k < n/2; k++ {
				a, b := 2*k+1, (2*k+2)%n
				want := float64(a+1) + float64(b+1)
				if cf.Weights[k] != want {
					t.Errorf("cluster %d weight %g, want %g", k, cf.Weights[k], want)
				}
			}
			// The ring of clusters keeps one edge between consecutive
			// clusters (weight 1 each).
			if coarse.NEdges != n/2 {
				t.Errorf("coarse NEdges %d, want %d", coarse.NEdges, n/2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpdateIntsTouched checks the incremental exchange's change
// report: only slots whose ghost value actually changed are returned,
// in ascending slot order, and re-sending an unchanged value reports
// nothing.
func TestUpdateIntsTouched(t *testing.T) {
	const n, p = 12, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		g := Build(c, n, WithLink(e1, e2))
		ge := NewGhostExchange(c, g)
		localN := g.LocalN(c.Rank())
		lo := g.Home.Lo(c.Rank())

		vals := make([]int, localN)
		for l := range vals {
			vals[l] = lo + l
		}
		ghost := ge.PushInts(c, vals)

		// Change every home value but mark only the first: exactly the
		// ghosts of the first vertex of each block may change.
		for l := range vals {
			vals[l] += 100
		}
		changed := make([]bool, localN)
		changed[0] = true
		touched := ge.UpdateIntsTouchedInto(c, vals, changed, ghost, nil)
		for i, s := range touched {
			if i > 0 && touched[i-1] >= s {
				t.Errorf("rank %d touched slots not ascending: %v", c.Rank(), touched)
			}
			id := ge.IDs[s]
			if id != g.Home.Lo(g.Home.Owner(id)) {
				t.Errorf("rank %d slot %d (vertex %d) touched but is not a block head", c.Rank(), s, id)
			}
			if ghost[s] != id+100 {
				t.Errorf("rank %d ghost of %d = %d, want %d", c.Rank(), id, ghost[s], id+100)
			}
		}
		// Every ghost that is a block head must have been reported.
		want := 0
		for _, id := range ge.IDs {
			if id == g.Home.Lo(g.Home.Owner(id)) {
				want++
			}
		}
		if len(touched) != want {
			t.Errorf("rank %d touched %d slots, want %d", c.Rank(), len(touched), want)
		}

		// Re-sending the same value is not a change.
		if again := ge.UpdateIntsTouchedInto(c, vals, changed, ghost, nil); len(again) != 0 {
			t.Errorf("rank %d unchanged resend reported touched slots %v", c.Rank(), again)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
