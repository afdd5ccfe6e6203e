package csr

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// specContract is the definition of a correct coarse graph: the
// map-summed contraction. Over every vertex v in ascending order and
// every slot of its row in order, an edge into another cluster adds its
// weight to the (cmap[v], cmap[u]) entry of a map; internal edges and
// self-loops drop out; vertex weights sum per cluster. rows[c] lists
// row c's neighbors in the order the scan first met them.
func specContract(g *Graph, cmap []int, nc int) (vw []float64, rows [][]int, w map[[2]int]float64) {
	vw = make([]float64, nc)
	rows = make([][]int, nc)
	w = map[[2]int]float64{}
	for v := 0; v < g.Len(); v++ {
		c := cmap[v]
		vw[c] += g.Weight(v)
		for k := g.XAdj[v]; k < g.XAdj[v+1]; k++ {
			u := cmap[g.Adj[k]]
			if u == c {
				continue
			}
			key := [2]int{c, u}
			if _, ok := w[key]; !ok {
				rows[c] = append(rows[c], u)
			}
			w[key] += g.EdgeWeight(k)
		}
	}
	return vw, rows, w
}

// checkContract compares Contract's output with specContract,
// bit for bit, and returns the first difference ("" when none).
func checkContract(g *Graph, cmap []int, nc int, cg Graph) string {
	vw, rows, w := specContract(g, cmap, nc)
	switch {
	case len(cg.XAdj) != nc+1 || cg.XAdj[0] != 0:
		return "xadj shape"
	case len(cg.Adj) != len(w) || len(cg.EdgeW) != len(w):
		return "edge count differs from the distinct cluster pairs"
	case !bitsEqual(cg.Weights, vw):
		return "vertex weights"
	}
	for c := 0; c < nc; c++ {
		lo, hi := cg.XAdj[c], cg.XAdj[c+1]
		if !slices.Equal(cg.Adj[lo:hi], rows[c]) {
			return "row order or content"
		}
		for k := lo; k < hi; k++ {
			if math.Float64bits(cg.EdgeW[k]) != math.Float64bits(w[[2]int{c, cg.Adj[k]}]) {
				return "edge weight"
			}
		}
	}
	return ""
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestContractAggregation(t *testing.T) {
	// A path 0-1-2-3 with edge weights 1,2,3 and vertex weights
	// 1,2,3,4; cluster {0,1} and {2,3}. The coarse graph must be a
	// single edge of weight 2 (the 1-2 edge) between vertices of
	// weight 3 and 7; the intra-cluster edges vanish.
	g := &Graph{
		XAdj:    []int{0, 1, 3, 5, 6},
		Adj:     []int{1, 0, 2, 1, 3, 2},
		EdgeW:   []float64{1, 1, 2, 2, 3, 3},
		Weights: []float64{1, 2, 3, 4},
	}
	cg := new(Scratch).Contract(g, []int{0, 0, 1, 1}, 2)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(cg.XAdj, want) {
		t.Errorf("cxadj = %v, want %v", cg.XAdj, want)
	}
	if want := []int{1, 0}; !reflect.DeepEqual(cg.Adj, want) {
		t.Errorf("cadj = %v, want %v", cg.Adj, want)
	}
	if want := []float64{2, 2}; !reflect.DeepEqual(cg.EdgeW, want) {
		t.Errorf("cew = %v, want %v", cg.EdgeW, want)
	}
	if want := []float64{3, 7}; !reflect.DeepEqual(cg.Weights, want) {
		t.Errorf("cw = %v, want %v", cg.Weights, want)
	}
}

func TestContractUnitWeightsAndReuse(t *testing.T) {
	// Nil ew/w mean unit weights: a triangle collapsed to an edge gets
	// vertex weights {2, 1} and the two fine edges between the
	// clusters merge into one coarse edge of weight 2. Reusing the
	// Scratch (as coarsening ladders do) must not leak state
	// between calls.
	g := &Graph{XAdj: []int{0, 2, 4, 6}, Adj: []int{1, 2, 0, 2, 0, 1}}
	cmap := []int{0, 0, 1}
	var s Scratch
	for round := 0; round < 3; round++ {
		cg := s.Contract(g, cmap, 2)
		if want := []int{0, 1, 2}; !reflect.DeepEqual(cg.XAdj, want) {
			t.Fatalf("round %d: cxadj = %v, want %v", round, cg.XAdj, want)
		}
		if want := []int{1, 0}; !reflect.DeepEqual(cg.Adj, want) {
			t.Fatalf("round %d: cadj = %v, want %v", round, cg.Adj, want)
		}
		if want := []float64{2, 2}; !reflect.DeepEqual(cg.EdgeW, want) {
			t.Fatalf("round %d: cew = %v, want %v", round, cg.EdgeW, want)
		}
		if want := []float64{2, 1}; !reflect.DeepEqual(cg.Weights, want) {
			t.Fatalf("round %d: cw = %v, want %v", round, cg.Weights, want)
		}
	}
}

// fuzzGraph decodes arbitrary bytes into a graph and a clustering: up
// to 24 vertices, rows of arbitrary neighbors (multi-edges, self-loops
// and empty rows included, no symmetry required), edge and vertex
// weights that are absent or fractional (zeros included, and sums that
// round differently in another order), and a cmap onto nc clusters,
// which may leave clusters empty or make them hold many vertices.
func fuzzGraph(data []byte) (*Graph, []int, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%24
	nc := 1 + next()%(n+2)
	flags := next()
	g := &Graph{XAdj: make([]int, n+1)}
	cmap := make([]int, n)
	for v := 0; v < n; v++ {
		cmap[v] = next() % nc
		for deg := next() % 6; deg > 0; deg-- {
			g.Adj = append(g.Adj, next()%n)
		}
		g.XAdj[v+1] = len(g.Adj)
	}
	if flags&1 != 0 {
		for range g.Adj {
			g.EdgeW = append(g.EdgeW, float64(next()%5)/7)
		}
	}
	if flags&2 != 0 {
		for v := 0; v < n; v++ {
			g.Weights = append(g.Weights, float64(next()%5)/3)
		}
	}
	return g, cmap, nc
}

// FuzzContract checks Contract against specContract on arbitrary
// graphs and clusterings, twice through one Scratch so stale scratch
// contents are exercised too.
func FuzzContract(f *testing.F) {
	f.Add([]byte{5, 3, 3, 0, 2, 1, 4, 1, 3, 2, 0, 4, 2, 2, 3, 1, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{23, 9, 1, 7, 5, 1, 1, 1, 1, 1, 8, 4, 3, 3, 3, 3, 6, 2, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{12, 1, 3, 0, 5, 1, 2, 3, 4, 5, 0, 5, 6, 7, 8, 9, 10, 0, 0, 0, 4, 4, 4})
	var s Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cmap, nc := fuzzGraph(data)
		for round := 0; round < 2; round++ {
			if diff := checkContract(g, cmap, nc, s.Contract(g, cmap, nc)); diff != "" {
				t.Fatalf("round %d: contraction differs from the specification: %s\ngraph %+v\ncmap %v nc %d", round, diff, *g, cmap, nc)
			}
		}
	})
}

func TestInduce(t *testing.T) {
	// A weighted 5-cycle; inducing {3, 0, 4} keeps the 3-4 and 4-0
	// edges in row order and renumbers by position in verts.
	g := &Graph{
		XAdj:    []int{0, 2, 4, 6, 8, 10},
		Adj:     []int{1, 4, 0, 2, 1, 3, 2, 4, 3, 0},
		EdgeW:   []float64{1, 5, 1, 2, 2, 3, 3, 4, 4, 5},
		Weights: []float64{10, 11, 12, 13, 14},
	}
	var s Scratch
	for round := 0; round < 2; round++ {
		sg := s.Induce(g, []int{3, 0, 4})
		if want := []int{0, 1, 2, 4}; !reflect.DeepEqual(sg.XAdj, want) {
			t.Errorf("round %d: xadj = %v, want %v", round, sg.XAdj, want)
		}
		if want := []int{2, 2, 0, 1}; !reflect.DeepEqual(sg.Adj, want) {
			t.Errorf("round %d: adj = %v, want %v", round, sg.Adj, want)
		}
		if want := []float64{4, 5, 4, 5}; !reflect.DeepEqual(sg.EdgeW, want) {
			t.Errorf("round %d: ew = %v, want %v", round, sg.EdgeW, want)
		}
		if want := []float64{13, 10, 14}; !reflect.DeepEqual(sg.Weights, want) {
			t.Errorf("round %d: w = %v, want %v", round, sg.Weights, want)
		}
		if cap(sg.Adj) != 6 {
			t.Errorf("round %d: adj capacity %d, want the degree sum 6", round, cap(sg.Adj))
		}
	}
	// Unweighted input: unit vertex weights materialize, edge weights
	// stay absent.
	u := s.Induce(&Graph{XAdj: g.XAdj, Adj: g.Adj}, []int{1, 2})
	if u.EdgeW != nil || !reflect.DeepEqual(u.Weights, []float64{1, 1}) || !reflect.DeepEqual(u.Adj, []int{1, 0}) {
		t.Errorf("unweighted induce = %+v", u)
	}
}

func TestSortRows(t *testing.T) {
	g := &Graph{
		XAdj:  []int{0, 3, 3, 5},
		Adj:   []int{7, 2, 5, 9, 1},
		EdgeW: []float64{0.7, 0.2, 0.5, 0.9, 0.1},
	}
	new(Scratch).SortRows(g)
	if want := []int{2, 5, 7, 1, 9}; !reflect.DeepEqual(g.Adj, want) {
		t.Errorf("adj = %v, want %v", g.Adj, want)
	}
	if want := []float64{0.2, 0.5, 0.7, 0.1, 0.9}; !reflect.DeepEqual(g.EdgeW, want) {
		t.Errorf("ew = %v, want %v", g.EdgeW, want)
	}
}

// BenchmarkHotContract is one contraction of a 32³ lattice under a
// pairing of consecutive ids, at steady state: the Scratch is warmed
// before the timer, so allocs/op counts only the four arrays of the
// result.
func BenchmarkHotContract(b *testing.B) {
	const side = 32
	g := &Graph{XAdj: []int{0}}
	id := func(x, y, z int) int { return (x*side+y)*side + z }
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				for _, d := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
					if nx, ny, nz := x+d[0], y+d[1], z+d[2]; min(nx, ny, nz) >= 0 && max(nx, ny, nz) < side {
						g.Adj = append(g.Adj, id(nx, ny, nz))
					}
				}
				g.XAdj = append(g.XAdj, len(g.Adj))
			}
		}
	}
	n := g.Len()
	cmap := make([]int, n)
	for v := range cmap {
		cmap[v] = v / 2
	}
	var s Scratch
	s.Contract(g, cmap, n/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contract(g, cmap, n/2)
	}
}
