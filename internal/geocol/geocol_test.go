package geocol

import (
	"strings"
	"testing"

	"chaos/internal/machine"
)

// ringEdges returns the edge list of an n-cycle, sliced for rank r of p
// by a block split of the edge index space.
func ringEdges(n, p, r int) (e1, e2 []int) {
	lo, hi := r*n/p, (r+1)*n/p
	for e := lo; e < hi; e++ {
		e1 = append(e1, e)
		e2 = append(e2, (e+1)%n)
	}
	return
}

func TestBuildLinkRing(t *testing.T) {
	const n, p = 12, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		g := Build(c, n, WithLink(e1, e2))
		if !g.HasLink || g.HasGeom || g.Weights != nil {
			t.Error("directive flags wrong")
		}
		if g.NEdges != n {
			t.Errorf("NEdges = %d, want %d", g.NEdges, n)
		}
		lo := g.Home.Lo(c.Rank())
		for l := 0; l < g.Home.LocalSize(c.Rank()); l++ {
			v := lo + l
			if g.Degree(l) != 2 {
				t.Errorf("degree(%d) = %d, want 2", v, g.Degree(l))
			}
			nb := neighbors(g, l)
			want1, want2 := (v+n-1)%n, (v+1)%n
			if want1 > want2 {
				want1, want2 = want2, want1
			}
			if nb[0] != want1 || nb[1] != want2 {
				t.Errorf("neighbors(%d) = %v, want [%d %d]", v, nb, want1, want2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEdgesAndSelfLoopsDropped(t *testing.T) {
	const n, p = 6, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		// Both ranks contribute the same edge (0,1) plus self-loops.
		e1 := []int{0, 0, 2, 1}
		e2 := []int{1, 1, 2, 0}
		g := Build(c, n, WithLink(e1, e2))
		if g.NEdges != 1 {
			t.Errorf("NEdges = %d, want 1 (dedup + self-loop removal)", g.NEdges)
		}
		if c.Rank() == 0 {
			if g.Degree(0) != 1 || neighbors(g, 0)[0] != 1 {
				t.Errorf("vertex 0 adjacency = %v", neighbors(g, 0))
			}
			if g.Degree(2) != 0 {
				t.Errorf("self-loop retained on vertex 2")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeometryAndLoad(t *testing.T) {
	const n, p = 10, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		localN := n/p + 0
		lo := c.Rank() * localN
		x := make([]float64, localN)
		y := make([]float64, localN)
		w := make([]float64, localN)
		for l := 0; l < localN; l++ {
			x[l] = float64(lo + l)
			y[l] = -float64(lo + l)
			w[l] = float64(lo+l) * 2
		}
		g := Build(c, n, WithGeometry(x, y), WithLoad(w))
		if !g.HasGeom || g.Weights == nil || g.HasLink {
			t.Error("flags wrong")
		}
		if g.Dim != 2 {
			t.Errorf("Dim = %d", g.Dim)
		}
		if g.Weight(0) != float64(lo)*2 {
			t.Errorf("Weight(0) = %v", g.Weight(0))
		}
		// Buffers are copied: mutating inputs must not change g.
		x[0] = 999
		if g.Coords[0][0] == 999 {
			t.Error("GEOMETRY aliases caller buffer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnitWeightDefault(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		g := Build(c, 4)
		if g.Weight(0) != 1 {
			t.Errorf("default weight = %v, want 1", g.Weight(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherMatchesLocal(t *testing.T) {
	const n, p = 16, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		localN := g0localN(n, p, c.Rank())
		x := make([]float64, localN)
		w := make([]float64, localN)
		lo := c.Rank() * (n / p)
		for l := range x {
			x[l] = float64(lo + l)
			w[l] = 1 + float64((lo+l)%3)
		}
		g := Build(c, n, WithLink(e1, e2), WithGeometry(x), WithLoad(w))
		f := g.GatherTo(c, machine.AllRanks)
		if f.Len() != n || g.NEdges != n || f.Weights == nil {
			t.Error("gathered graph metadata wrong")
		}
		for v := 0; v < n; v++ {
			nb := f.Adj[f.XAdj[v]:f.XAdj[v+1]]
			if len(nb) != 2 {
				t.Errorf("full degree(%d) = %d", v, len(nb))
			}
			if f.Weight(v) != 1+float64(v%3) {
				t.Errorf("full weight(%d) = %v", v, f.Weight(v))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// neighbors returns the sorted global neighbor ids of home-local
// vertex l.
func neighbors(g *Graph, l int) []int { return g.Adj[g.XAdj[l]:g.XAdj[l+1]] }

func g0localN(n, p, r int) int {
	q, rem := n/p, n%p
	if r < rem {
		return q + 1
	}
	return q
}

func TestEdgeOutOfRangePanics(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		Build(c, 4, WithLink([]int{0}, []int{7}))
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestMismatchedLinkListsPanic(t *testing.T) {
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		Build(c, 4, WithLink([]int{0, 1}, []int{1}))
	})
	if err == nil || !strings.Contains(err.Error(), "unequal") {
		t.Fatalf("err = %v", err)
	}
}

func TestGeometryWrongLengthPanics(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		Build(c, 8, WithGeometry(make([]float64, 1)))
	})
	if err == nil {
		t.Fatal("expected panic for short GEOMETRY column")
	}
}

func TestCombinedGeometryConnectivity(t *testing.T) {
	// Figure 4/5 pattern: CONSTRUCT with both GEOMETRY and LINK.
	const n, p = 8, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		localN := n / p
		x := make([]float64, localN)
		g := Build(c, n, WithGeometry(x), WithLink(e1, e2))
		if !g.HasGeom || !g.HasLink {
			t.Error("combined construct lost a directive")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
