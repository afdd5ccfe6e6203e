package partition

import (
	"math"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/xrand"
)

// gridFixture builds a gx × gy grid graph with jittered coordinates as
// a GeoCoL structure, distributed over the calling machine. Returns the
// local graph plus the full edge lists (identical on all ranks) for
// reference computations.
func gridFixture(c *machine.Ctx, gx, gy int, withGeom, withLink, withLoad bool) *geocol.Graph {
	n := gx * gy
	home := dist.NewBlock(n, c.Procs())
	lo, hi := home.Lo(c.Rank()), home.Hi(c.Rank())

	var opts []geocol.Option
	if withGeom {
		xs := make([]float64, hi-lo)
		ys := make([]float64, hi-lo)
		for l := 0; l < hi-lo; l++ {
			v := lo + l
			j := xrand.Hash64(uint64(v))
			xs[l] = float64(v%gx) + 1e-4*float64(j%1000)
			ys[l] = float64(v/gx) + 1e-4*float64((j/1000)%1000)
		}
		opts = append(opts, geocol.WithGeometry(xs, ys))
	}
	if withLink {
		// Each rank contributes the edges whose lexicographically
		// first endpoint it homes.
		var e1, e2 []int
		for v := lo; v < hi; v++ {
			x, y := v%gx, v/gx
			if x+1 < gx {
				e1 = append(e1, v)
				e2 = append(e2, v+1)
			}
			if y+1 < gy {
				e1 = append(e1, v)
				e2 = append(e2, v+gx)
			}
		}
		opts = append(opts, geocol.WithLink(e1, e2))
	}
	if withLoad {
		w := make([]float64, hi-lo)
		for l := range w {
			w[l] = 1 + float64((lo+l)%4) // weights 1..4
		}
		opts = append(opts, geocol.WithLoad(w))
	}
	return geocol.Build(c, n, opts...)
}

// gatherParts collects every rank's local part slice into the global
// map array (identical on all ranks).
func gatherParts(c *machine.Ctx, part []int) []int {
	return c.AllGatherInts(part)
}

// checkBalance verifies that part weights are within frac of ideal.
func checkBalance(t *testing.T, part []int, w []float64, nparts int, frac float64) {
	t.Helper()
	tot := 0.0
	pw := make([]float64, nparts)
	for v, p := range part {
		if p < 0 || p >= nparts {
			t.Fatalf("part[%d] = %d out of range", v, p)
		}
		wt := 1.0
		if w != nil {
			wt = w[v]
		}
		pw[p] += wt
		tot += wt
	}
	ideal := tot / float64(nparts)
	for p, x := range pw {
		if math.Abs(x-ideal) > frac*ideal+1 {
			t.Errorf("part %d weight %v, ideal %v (tolerance %v)", p, x, ideal, frac*ideal+1)
		}
	}
}

func gridEdges(gx, gy int) (xadj, adj []int) {
	n := gx * gy
	var lists [][]int = make([][]int, n)
	addE := func(u, v int) { lists[u] = append(lists[u], v); lists[v] = append(lists[v], u) }
	for v := 0; v < n; v++ {
		x, y := v%gx, v/gx
		if x+1 < gx {
			addE(v, v+1)
		}
		if y+1 < gy {
			addE(v, v+gx)
		}
	}
	xadj = make([]int, n+1)
	for v := 0; v < n; v++ {
		adj = append(adj, lists[v]...)
		xadj[v+1] = len(adj)
	}
	return
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"BLOCK", "RCB", "RSB"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Error("Lookup of unknown partitioner succeeded")
	}
}

type fakePart struct{}

func (fakePart) Name() string               { return "CUSTOM" }
func (fakePart) Capabilities() Capabilities { return Capabilities{} }
func (fakePart) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	return make([]int, g.LocalN(c.Rank()))
}

func TestRegisterCustomPartitioner(t *testing.T) {
	Register(fakePart{})
	p, err := Lookup("CUSTOM")
	if err != nil || p.Name() != "CUSTOM" {
		t.Fatalf("custom partitioner not registered: %v", err)
	}
}

func TestBlockPartitioner(t *testing.T) {
	const p = 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		g := gridFixture(c, 8, 8, false, false, false)
		part := gatherParts(c, BlockPartitioner{}.Partition(c, g, p))
		checkBalance(t, part, nil, p, 0.01)
		// Contiguity: parts must be non-decreasing over global index.
		for v := 1; v < len(part); v++ {
			if part[v] < part[v-1] {
				t.Fatalf("BLOCK not contiguous at %d", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRCBBalanceAndLocality(t *testing.T) {
	const p = 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		g := gridFixture(c, 16, 16, true, false, false)
		part := gatherParts(c, RCB{}.Partition(c, g, p))
		checkBalance(t, part, nil, p, 0.02)
		if c.Rank() == 0 {
			xadj, adj := gridEdges(16, 16)
			cutRCB := CutEdges(xadj, adj, part)
			// A 4-way geometric split of a 16x16 grid should cut on
			// the order of 2*16 edges; random would cut ~3/4 of 480.
			if cutRCB > 80 {
				t.Errorf("RCB cut %d edges, expected geometric locality (< 80)", cutRCB)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRCBNonPowerOfTwoParts(t *testing.T) {
	const p = 3
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		g := gridFixture(c, 12, 12, true, false, false)
		part := gatherParts(c, RCB{}.Partition(c, g, 3))
		checkBalance(t, part, nil, 3, 0.03)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRCBHonorsLoadWeights(t *testing.T) {
	const p = 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		g := gridFixture(c, 10, 10, true, false, true)
		localPart := RCB{}.Partition(c, g, p)
		part := gatherParts(c, localPart)
		w := make([]float64, 100)
		for v := range w {
			w[v] = 1 + float64(v%4)
		}
		checkBalance(t, part, w, p, 0.05)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRCBRequiresGeometry(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		g := gridFixture(c, 4, 4, false, true, false)
		RCB{}.Partition(c, g, 2)
	})
	if err == nil {
		t.Fatal("RCB without GEOMETRY should fail")
	}
}

func TestRSBBalanceAndQuality(t *testing.T) {
	const p = 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		g := gridFixture(c, 12, 12, false, true, false)
		part := gatherParts(c, RSB{}.Partition(c, g, p))
		checkBalance(t, part, nil, p, 0.05)
		if c.Rank() == 0 {
			xadj, adj := gridEdges(12, 12)
			cut := CutEdges(xadj, adj, part)
			// Spectral 4-way split of 12x12 grid: near-optimal is
			// ~24; anything under 60 shows real locality (total 264).
			if cut > 60 {
				t.Errorf("RSB cut %d edges", cut)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRSBRequiresLink(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		g := gridFixture(c, 4, 4, true, false, false)
		RSB{}.Partition(c, g, 2)
	})
	if err == nil {
		t.Fatal("RSB without LINK should fail")
	}
}

func TestPartitionersAgreeAcrossRanks(t *testing.T) {
	// The map array must be identical no matter which rank assembled
	// it (SPMD consistency).
	const p = 4
	for _, name := range []string{"BLOCK", "RCB", "RSB"} {
		pt, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]int, p)
		err = machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			g := gridFixture(c, 8, 8, true, true, false)
			part := gatherParts(c, pt.Partition(c, g, p))
			results[c.Rank()] = part
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := 1; r < p; r++ {
			for v := range results[0] {
				if results[r][v] != results[0][v] {
					t.Fatalf("%s: ranks 0 and %d disagree at vertex %d", name, r, v)
				}
			}
		}
	}
}

func TestFiedlerPathGraph(t *testing.T) {
	// The Fiedler vector of a path graph is monotone (cos profile),
	// so the spectral split of a path must be its two halves.
	const n = 40
	sg := &subgraph{orig: make([]int, n)}
	sg.XAdj, sg.Weights = make([]int, n+1), make([]float64, n)
	for i := 0; i < n; i++ {
		sg.orig[i] = i
		sg.Weights[i] = 1
		if i > 0 {
			sg.Adj = append(sg.Adj, i-1)
		}
		if i < n-1 {
			sg.Adj = append(sg.Adj, i+1)
		}
		sg.XAdj[i+1] = len(sg.Adj)
	}
	fv := sg.fiedler(7)
	// All values on one half must be on the same side of the median.
	lessFirst := 0
	for i := 0; i < n/2; i++ {
		if fv[i] < fv[n-1-i] {
			lessFirst++
		}
	}
	if lessFirst != 0 && lessFirst != n/2 {
		t.Errorf("Fiedler vector of path not monotone-ish: %d/%d", lessFirst, n/2)
	}
}

func TestTql2KnownEigenvalues(t *testing.T) {
	// Tridiagonal with diag 2, offdiag -1 (n=4): eigenvalues
	// 2-2cos(kπ/5), k=1..4.
	d := []float64{2, 2, 2, 2}
	e := []float64{0, -1, -1, -1}
	z := identity(4)
	tql2(d, e, z)
	var want []float64
	for k := 1; k <= 4; k++ {
		want = append(want, 2-2*math.Cos(float64(k)*math.Pi/5))
	}
	// Sort both.
	for i := range d {
		for j := i + 1; j < len(d); j++ {
			if d[j] < d[i] {
				d[i], d[j] = d[j], d[i]
			}
		}
	}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-9 {
			t.Errorf("eigenvalue %d = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestCutEdges(t *testing.T) {
	xadj, adj := gridEdges(2, 2) // square: 4 edges
	if tot := CutEdges(xadj, adj, []int{0, 0, 0, 0}); tot != 0 {
		t.Errorf("uniform partition cut %d", tot)
	}
	if tot := CutEdges(xadj, adj, []int{0, 1, 0, 1}); tot != 2 {
		t.Errorf("checkerboard-ish cut %d, want 2", tot)
	}
	if tot := CutEdges(xadj, adj, []int{0, 1, 2, 3}); tot != 4 {
		t.Errorf("all-distinct cut %d, want 4", tot)
	}
}

func TestNamesIncludesBuiltins(t *testing.T) {
	names := Names()
	want := map[string]bool{"BLOCK": true, "RCB": true, "RSB": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("Names() missing %v (got %v)", want, names)
	}
}

// CutEdges counts edges crossing parts in a full partition map (works on
// the gathered graph).
func CutEdges(xadj, adj []int, part []int) int {
	cut := 0
	for v := 0; v+1 < len(xadj); v++ {
		for _, u := range adj[xadj[v]:xadj[v+1]] {
			if part[u] != part[v] {
				cut++
			}
		}
	}
	return cut / 2
}
