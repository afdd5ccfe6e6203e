// Package csr holds the one serial weighted graph of the partitioner
// library — adjacency in compressed sparse row form with optional edge
// and vertex weights — and the reusable scratch of the three operations
// that derive new graphs from it: contraction under a clustering, the
// subgraph induced by a vertex subset, and a per-row neighbor sort.
//
// It is the one graph type of the library. The serial partitioners
// (RSB, serial MULTILEVEL, the gathered k-way polish) and STREAM's
// resident coarse model hold their graph as a Graph, and
// geocol.Graph.GatherTo returns one. The distributed geocol.Graph embeds
// one for its home rows, whose neighbor ids are global.
package csr

import (
	"cmp"
	"slices"

	"chaos/internal/scratch"
)

// Graph is a weighted graph in CSR form: the neighbors of vertex v are
// Adj[XAdj[v]:XAdj[v+1]]. EdgeW holds per-slot edge weights parallel
// to Adj and Weights per-vertex weights. Either may be nil, which means
// unit weights: Weight and EdgeWeight are the one place that rule is
// applied.
type Graph struct {
	XAdj, Adj      []int
	EdgeW, Weights []float64
}

// Len returns the vertex count.
func (g *Graph) Len() int { return len(g.XAdj) - 1 }

// Weight returns the weight of vertex v (1 when g has no vertex
// weights).
func (g *Graph) Weight(v int) float64 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[v]
}

// EdgeWeight returns the weight of adjacency slot k (1 when g has no
// edge weights).
func (g *Graph) EdgeWeight(k int) float64 {
	if g.EdgeW == nil {
		return 1
	}
	return g.EdgeW[k]
}

// Scratch is the reusable workspace of Contract, Induce and SortRows.
// The zero value is ready to use. Buffers grow to the largest graph
// seen and are reused: a multilevel partitioner contracts and induces
// graphs proportional to its whole recursion tree, so one Scratch per
// run keeps that from allocating per call. Nothing a caller receives
// aliases it. A Scratch is single-goroutine state.
type Scratch struct {
	// ints holds Contract's bucket starts and cursors, the coarse-row
	// position of each coarse neighbor, the member lists and the coarse
	// adjacency; ew the coarse edge weights. The coarse rows are
	// assembled there because their total size is known only at the
	// end.
	ints []int
	ew   []float64
	// local is Induce's global-to-local scatter array, stamped per call
	// with bases counted from base (never re-cleared).
	local []int
	base  int
	// row is SortRows' buffer of one row's (neighbor, weight) pairs.
	row []edge
}

// edge is one adjacency slot: neighbor and weight.
type edge struct {
	u int
	w float64
}

func byNeighbor(a, b edge) int { return cmp.Compare(a.u, b.u) }

// Contract returns the coarse graph of g under a clustering: cmap maps
// each vertex of g to a coarse vertex in [0, nc). A coarse vertex
// weighs the sum of its members' weights, parallel edges between two
// clusters merge into one coarse edge carrying their summed weight,
// and edges internal to a cluster vanish. Every sum is taken in
// ascending member order, and the members' rows are scanned in that
// order, so each coarse row lists its neighbors in first-encounter
// order — deterministic, though not sorted (SortRows sorts). The result
// always carries both weight arrays and the symmetric CSR form of g;
// it is freshly allocated, only the scratch is reused.
//
//chaos:hotpath
func (s *Scratch) Contract(g *Graph, cmap []int, nc int) Graph {
	n := g.Len()
	// A coarse graph has at most as many adjacency slots as g.
	ints := scratch.Grow(&s.ints, 3*nc+1+n+len(g.Adj))
	start, next, pos := ints[:nc+1], ints[nc+1:2*nc+1], ints[2*nc+1:3*nc+1]
	members, adj := ints[3*nc+1:3*nc+1+n], ints[3*nc+1+n:3*nc+1+n]
	ew := scratch.Grow(&s.ew, len(g.Adj))[:0]

	// Bucket the vertices by coarse vertex (counting sort), so each
	// coarse row is assembled in one scan over its members.
	cw := make([]float64, nc)
	clear(start)
	for v := 0; v < n; v++ {
		cw[cmap[v]] += g.Weight(v)
		start[cmap[v]+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	copy(next, start[:nc])
	for v := 0; v < n; v++ {
		members[next[cmap[v]]] = v
		next[cmap[v]]++
	}

	// pos[u] is where coarse neighbor u sits in the row being built; a
	// position before the row's start means u is not in it yet.
	for c := range pos {
		pos[c] = -1
	}
	xadj := make([]int, nc+1)
	for c := 0; c < nc; c++ {
		lo := len(adj)
		for _, v := range members[start[c]:start[c+1]] {
			for k := g.XAdj[v]; k < g.XAdj[v+1]; k++ {
				u := cmap[g.Adj[k]]
				if u == c {
					continue // internal edge vanishes
				}
				if pos[u] < lo {
					pos[u] = len(adj)
					adj = append(adj, u)
					ew = append(ew, 0)
				}
				ew[pos[u]] += g.EdgeWeight(k)
			}
		}
		xadj[c+1] = len(adj)
	}
	return Graph{XAdj: xadj, Adj: slices.Clone(adj), EdgeW: slices.Clone(ew), Weights: cw}
}

// Induce returns the subgraph of g induced by verts: vertex i of the
// result is verts[i], and the edges with both ends in verts keep their
// order in g. The result always carries vertex weights, and edge
// weights when g does. Its CSR is sized once, by the degree sum of
// verts in g (edges leaving the group drop out, so that is an upper
// bound and the capacity of Adj).
//
// The global-to-local translation uses a scatter array rather than a
// map: bisection induces subgraphs proportional to the whole recursion
// tree, and the array keeps that linear. The array is never re-cleared:
// every call stamps its entries with a base above anything an earlier
// call wrote, so stale entries read as absent.
//
//chaos:hotpath
func (s *Scratch) Induce(g *Graph, verts []int) Graph {
	// local[v] == base+1+i marks v as vertex i of the subgraph.
	local, base := scratch.Grow(&s.local, g.Len()), s.base
	s.base += len(verts)
	degSum := 0
	for i, v := range verts {
		local[v] = base + 1 + i
		degSum += g.XAdj[v+1] - g.XAdj[v]
	}
	sg := Graph{
		XAdj:    make([]int, len(verts)+1),
		Adj:     make([]int, 0, degSum),
		Weights: make([]float64, len(verts)),
	}
	if g.EdgeW != nil {
		sg.EdgeW = make([]float64, 0, degSum)
	}
	for i, v := range verts {
		sg.Weights[i] = g.Weight(v)
		for k := g.XAdj[v]; k < g.XAdj[v+1]; k++ {
			if j := local[g.Adj[k]] - base - 1; j >= 0 {
				sg.Adj = append(sg.Adj, j)
				if g.EdgeW != nil {
					sg.EdgeW = append(sg.EdgeW, g.EdgeW[k])
				}
			}
		}
		sg.XAdj[i+1] = len(sg.Adj)
	}
	return sg
}

// SortRows sorts every row of g by neighbor id in place, each edge
// weight moving with its neighbor. g must carry edge weights and hold
// distinct neighbors in every row (as Contract's output does), so the
// order is total.
//
//chaos:hotpath
func (s *Scratch) SortRows(g *Graph) {
	maxDeg := 0
	for v := 0; v < g.Len(); v++ {
		maxDeg = max(maxDeg, g.XAdj[v+1]-g.XAdj[v])
	}
	buf := scratch.Grow(&s.row, maxDeg)
	for v := 0; v < g.Len(); v++ {
		lo, hi := g.XAdj[v], g.XAdj[v+1]
		row := buf[:hi-lo]
		for i := range row {
			row[i] = edge{g.Adj[lo+i], g.EdgeW[lo+i]}
		}
		slices.SortFunc(row, byNeighbor)
		for i, e := range row {
			g.Adj[lo+i], g.EdgeW[lo+i] = e.u, e.w
		}
	}
}
