package geocol

import (
	"cmp"
	"fmt"
	"slices"

	"chaos/internal/csr"
	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// Graph is one rank's slice of a GeoCoL data structure. Vertices are
// distributed by Home (BLOCK); all per-vertex slices are indexed by
// home-local vertex number.
type Graph struct {
	// N is the global vertex count.
	N int
	// Home is the construction distribution of the vertex space.
	Home dist.BlockDist

	// HasLink and HasGeom report which directives contributed; LOAD
	// contributed exactly when Weights is non-nil.
	HasLink, HasGeom bool

	// Graph holds the home rows: the neighbors of home-local vertex l
	// are Adj[XAdj[l]:XAdj[l+1]], as global vertex ids, sorted, with
	// duplicates and self-loops removed. A CONSTRUCT-built graph has no
	// EdgeW; coarse graphs built by BuildCoarse carry the aggregated
	// multiplicity of the fine edges each coarse edge represents.
	// Weights holds LOAD, the computational weight of each home vertex.
	// The nil-ness of EdgeW and Weights is the same on every rank (it
	// gates collectives), and Weight and EdgeWeight read nil as unit.
	csr.Graph
	// NEdges is the global undirected edge count after dedup.
	NEdges int

	// Dim and Coords hold GEOMETRY: Coords[d][l] is coordinate d of
	// home-local vertex l.
	Dim    int
	Coords [][]float64
}

// Option contributes one directive keyword to a CONSTRUCT.
type Option func(*spec)

type spec struct {
	e1, e2  []int
	hasLink bool
	coords  [][]float64
	weights []float64
}

// WithLink supplies connectivity: edge i links global vertices e1[i]
// and e2[i]. Each rank passes its locally stored slice of the edge
// list (edges may name any vertices). Mirrors
// "LINK(E, edge_list1, edge_list2)".
func WithLink(e1, e2 []int) Option {
	return func(s *spec) {
		if len(e1) != len(e2) {
			panic(fmt.Sprintf("geocol: LINK lists of unequal length %d, %d", len(e1), len(e2)))
		}
		s.e1, s.e2 = e1, e2
		s.hasLink = true
	}
}

// WithGeometry supplies spatial coordinates: coords[d] holds dimension
// d for this rank's home-resident vertices, in home-local order.
// Mirrors "GEOMETRY(ndim, xcord, ycord, zcord)".
func WithGeometry(coords ...[]float64) Option {
	return func(s *spec) { s.coords = coords }
}

// WithLoad supplies per-vertex computational weight for this rank's
// home-resident vertices. Mirrors "LOAD(weight)".
func WithLoad(w []float64) Option {
	return func(s *spec) { s.weights = w }
}

// Build constructs the GeoCoL data structure for n vertices; it is the
// runtime realization of the CONSTRUCT directive (paper Section 4.1.2).
// Collective.
func Build(c *machine.Ctx, n int, opts ...Option) *Graph {
	var s spec
	for _, o := range opts {
		o(&s)
	}
	g := &Graph{N: n, Home: dist.NewBlock(n, c.Procs())}
	localN := g.Home.LocalSize(c.Rank())

	if s.coords != nil {
		g.HasGeom = true
		g.Dim = len(s.coords)
		for d, col := range s.coords {
			if len(col) != localN {
				panic(fmt.Sprintf("geocol: GEOMETRY dim %d has %d entries, want %d", d, len(col), localN))
			}
			cp := make([]float64, localN)
			copy(cp, col)
			g.Coords = append(g.Coords, cp)
		}
		c.Words(localN * g.Dim)
	}
	if s.weights != nil {
		if len(s.weights) != localN {
			panic(fmt.Sprintf("geocol: LOAD has %d entries, want %d", len(s.weights), localN))
		}
		g.Weights = make([]float64, localN)
		copy(g.Weights, s.weights)
		c.Words(localN)
	}

	if s.hasLink {
		g.HasLink = true
		g.buildLink(c, s.e1, s.e2)
	} else {
		g.XAdj = make([]int, localN+1)
	}
	return g
}

// buildLink routes each edge endpoint to the home rank of the vertex,
// then assembles the deduplicated local CSR. Both halves are count →
// prefix-sum → fill over flat arrays: the send rows are slices of one
// array sized by a counting pass, and the received (u,v) pairs are
// counting-sorted by u straight into the array that becomes Adj, whose
// rows are then sorted and deduplicated in place.
//
//chaos:hotpath
func (g *Graph) buildLink(c *machine.Ctx, e1, e2 []int) {
	p := c.Procs()
	// own[2i], own[2i+1] are the home ranks of edge i's endpoints (-1
	// for a self-loop, which carries no dependence); next counts the
	// words bound for each rank, then becomes the rows' fill cursors.
	own := make([]int, 2*len(e1))
	next := make([]int, p+1)
	for i := range e1 {
		u, v := e1[i], e2[i]
		if u < 0 || u >= g.N || v < 0 || v >= g.N {
			panicEdgeRange(u, v, g.N)
		}
		if u == v {
			own[2*i] = -1
			continue
		}
		ru, rv := g.Home.Owner(u), g.Home.Owner(v)
		own[2*i], own[2*i+1] = ru, rv
		next[ru+1] += 2
		next[rv+1] += 2
	}
	for r := 0; r < p; r++ {
		next[r+1] += next[r]
	}
	words := make([]int, next[p])
	out := make([][]int, p)
	for r := 0; r < p; r++ {
		out[r] = words[next[r]:next[r+1]]
	}
	for i := range e1 {
		ru, rv := own[2*i], own[2*i+1]
		if ru < 0 {
			continue
		}
		k := next[ru]
		words[k], words[k+1] = e1[i], e2[i]
		next[ru] = k + 2
		k = next[rv]
		words[k], words[k+1] = e2[i], e1[i]
		next[rv] = k + 2
	}
	c.Words(4 * len(e1))
	// words is never written again, so the rows go out by ownership
	// transfer (no sender-side copy); the receivers are done with them
	// before the SumInt below.
	in := c.ExchangeInts(out, nil)

	localN := g.Home.LocalSize(c.Rank())
	lo := g.Home.Lo(c.Rank())
	// Count the pairs of every home vertex, prefix-sum the counts into
	// row starts, and fill; the fill advances xadj[l] through row l, so
	// afterwards xadj[l] is where row l ends.
	xadj := make([]int, localN+1)
	for _, pairs := range in {
		for i := 0; i+1 < len(pairs); i += 2 {
			xadj[pairs[i]-lo+1]++
		}
	}
	for l := 0; l < localN; l++ {
		xadj[l+1] += xadj[l]
	}
	adj := make([]int, xadj[localN])
	for _, pairs := range in {
		for i := 0; i+1 < len(pairs); i += 2 {
			l := pairs[i] - lo
			adj[xadj[l]] = pairs[i+1]
			xadj[l]++
		}
	}
	// Sort and dedup each adjacency list for determinism, compacting in
	// place: the write cursor degSum never overtakes the row being read.
	degSum, rowLo := 0, 0
	for l := 0; l < localN; l++ {
		row := adj[rowLo:xadj[l]]
		rowLo = xadj[l]
		slices.Sort(row)
		xadj[l] = degSum
		prev := -1
		for _, v := range row {
			if v != prev {
				adj[degSum] = v
				prev = v
				degSum++
			}
		}
	}
	xadj[localN] = degSum
	g.XAdj, g.Adj = xadj, adj[:degSum:degSum]
	c.Words(3 * degSum)
	g.NEdges = c.SumInt(degSum) / 2
}

func panicEdgeRange(u, v, n int) {
	panic(fmt.Sprintf("geocol: LINK edge (%d,%d) out of range [0,%d)", u, v, n))
}

// Degree returns the degree of home-local vertex l.
func (g *Graph) Degree(l int) int { return g.XAdj[l+1] - g.XAdj[l] }

// Neighbors returns the sorted global neighbor ids of home-local vertex
// l (do not mutate).
func (g *Graph) Neighbors(l int) []int { return g.Adj[g.XAdj[l]:g.XAdj[l+1]] }

// LocalN returns the number of home-resident vertices on rank.
func (g *Graph) LocalN(rank int) int { return g.Home.LocalSize(rank) }

// Bytes reports the approximate heap footprint of this rank's slice of
// the graph — the CSR, edge weights, coordinates and load weights — in
// bytes. The service layer's cache uses it to account retained
// coarsening ladders against its memory cap.
func (g *Graph) Bytes() int {
	if g == nil {
		return 0
	}
	b := 8 * (len(g.XAdj) + len(g.Adj))
	b += 8 * (len(g.EdgeW) + len(g.Weights))
	for _, col := range g.Coords {
		b += 8 * len(col)
	}
	return b
}

// Gather assembles the whole graph's LINK and LOAD components on every
// rank, as the csr.Graph the serial partitioners take; collective. The communication is charged to the virtual clock, which
// is part of the paper's "graph generation" cost for connectivity-based
// partitioners.
func (g *Graph) Gather(c *machine.Ctx) *csr.Graph { return g.GatherTo(c, machine.AllRanks) }

// GatherTo assembles the complete LINK and LOAD components on root
// alone, for the solves that run once on one rank under the
// replicated-cost convention; the other ranks get a graph with no
// arrays. Every rank takes part and is charged exactly what Gather
// charges it. The graph's own arrays are deposited uncopied
// (machine.Ctx.GatherInts), which is sound because they are never
// rewritten. Collective.
func (g *Graph) GatherTo(c *machine.Ctx, root int) *csr.Graph {
	here := root == machine.AllRanks || root == c.Rank()
	f := &csr.Graph{}
	if g.HasLink {
		// Degrees then adjacency; home ranges are rank-ordered so
		// concatenation lines up with global vertex order.
		degs := make([]int, g.Home.LocalSize(c.Rank()))
		for l := range degs {
			degs[l] = g.Degree(l)
		}
		allDeg := c.GatherInts(root, degs)
		if here {
			f.XAdj = make([]int, g.N+1)
			for v := 0; v < g.N; v++ {
				f.XAdj[v+1] = f.XAdj[v] + allDeg[v]
			}
		}
		f.Adj = c.GatherInts(root, g.Adj)
		if g.EdgeW != nil {
			f.EdgeW = c.GatherFloats(root, g.EdgeW)
		}
	} else if here {
		f.XAdj = make([]int, g.N+1)
	}
	if g.Weights != nil {
		f.Weights = c.GatherFloats(root, g.Weights)
	}
	return f
}

// CoarseAssembler holds the reusable scratch of the distributed
// contraction (BuildCoarse): the ghost copy of the clustering, the flat
// arrays behind the per-rank weight/edge routing rows, and the
// contributions of the local CSR assembly. Like csr.Scratch it is plain
// per-goroutine state — the zero value is ready, buffers grow to the
// steady-state high-water mark (each is sized by a counting pass before
// it is filled, so the first, finest level of a ladder sizes them for
// all the coarser ones) and are reused across levels and epochs, and
// nothing the caller retains aliases them (the coarse Graph is always
// freshly allocated).
type CoarseAssembler struct {
	ghostC []int
	// owner[l] is the coarse home rank of local fine vertex l; nv/ne
	// count, then offset, each rank's weight and edge rows.
	owner, nv, ne []int
	// The routing rows are slices of four flat arrays; inI/inE/inV/inW
	// are the receive-header tables of their four exchanges.
	wIDs, eIDs   []int
	wVals, eW    []float64
	rowsI, rowsE [][]int
	rowsV, rowsW [][]float64
	inI, inE     [][]int
	inV, inW     [][]float64
	tris         []coarseContrib
}

// coarseContrib is one routed fine-edge contribution to a local coarse
// row: global coarse neighbor and weight.
type coarseContrib struct {
	u int
	w float64
}

// byNeighbor orders the contributions of one coarse row by neighbor id.
func byNeighbor(a, b coarseContrib) int { return cmp.Compare(a.u, b.u) }

// BuildCoarse is the one-shot convenience form of
// CoarseAssembler.BuildCoarse.
func BuildCoarse(c *machine.Ctx, g *Graph, ge *GhostExchange, cmap []int, coarseN int) *Graph {
	var a CoarseAssembler
	return a.BuildCoarse(c, g, ge, cmap, coarseN)
}

// BuildCoarse is the distributed build path of the contraction: it
// collectively contracts a block-distributed Graph under a clustering
// without ever gathering it. cmap maps each of this rank's home-local
// fine vertices to a global coarse vertex id in [0, coarseN); the
// clustering may freely cross rank boundaries (a distributed matcher
// assigns both endpoints of a matched edge the same coarse id).
//
// Every rank routes its fine vertex weights and fine edges to the BLOCK
// owner of the coarse endpoint, where contributions from all ranks are
// aggregated exactly as csr.Scratch.Contract does serially: coarse
// vertex weights are the global sums of their members' weights,
// parallel fine edges between two clusters merge into one coarse edge
// carrying the summed weight, and intra-cluster edges vanish. Because
// the fine CSR is symmetric and both endpoint owners route every edge,
// the coarse CSR comes out symmetric with identical weights on both
// directions. Adjacency lists are sorted by neighbor id, making the
// result independent of which ranks contributed which fine edges.
//
// The returned Graph is block-distributed over coarseN vertices and
// always carries LOAD weights (the aggregated member weights) and
// per-edge weights. ge must be the exchange pattern of g (the caller
// built it for the matching phase already). Collective; communication
// and assembly work are charged to the virtual clock.
//
//chaos:hotpath
func (a *CoarseAssembler) BuildCoarse(c *machine.Ctx, g *Graph, ge *GhostExchange, cmap []int, coarseN int) *Graph {
	me, procs := c.Rank(), c.Procs()
	ghostC := ge.PushIntsInto(c, cmap, a.ghostC)
	a.ghostC = ghostC

	coarse := &Graph{N: coarseN, Home: dist.NewBlock(coarseN, procs), HasLink: true}
	localN := g.LocalN(me)

	// Route (coarse id, weight) and (coarse src, coarse dst, weight) to
	// the coarse owner of the (source) coarse vertex. Edge ids and edge
	// weights travel in two parallel exchanges with matching order. A
	// counting pass sizes every rank's rows first — one vertex each, and
	// at most its degree in edges (intra-cluster edges drop out in the
	// fill) — so the rows are slices of flat arrays and never grow.
	owner := scratch.Grow(&a.owner, localN)
	nv, ne := scratch.Grow(&a.nv, procs+1), scratch.Grow(&a.ne, procs+1)
	clear(nv)
	clear(ne)
	for l, cv := range cmap {
		r := coarse.Home.Owner(cv)
		owner[l] = r
		nv[r+1]++
		ne[r+1] += g.XAdj[l+1] - g.XAdj[l]
	}
	flatWIDs, flatWVals := scratch.Grow(&a.wIDs, localN), scratch.Grow(&a.wVals, localN)
	flatEIDs, flatEW := scratch.Grow(&a.eIDs, 2*len(g.Adj)), scratch.Grow(&a.eW, len(g.Adj))
	wIDs, wVals := scratch.Grow(&a.rowsI, procs), scratch.Grow(&a.rowsV, procs)
	eIDs, eW := scratch.Grow(&a.rowsE, procs), scratch.Grow(&a.rowsW, procs)
	for r := 0; r < procs; r++ {
		nv[r+1] += nv[r]
		ne[r+1] += ne[r]
		wIDs[r] = flatWIDs[nv[r]:nv[r]:nv[r+1]]
		wVals[r] = flatWVals[nv[r]:nv[r]:nv[r+1]]
		eIDs[r] = flatEIDs[2*ne[r] : 2*ne[r] : 2*ne[r+1]]
		eW[r] = flatEW[ne[r]:ne[r]:ne[r+1]]
	}
	for l := 0; l < localN; l++ {
		cv := cmap[l]
		r := owner[l]
		wIDs[r] = append(wIDs[r], cv)
		wVals[r] = append(wVals[r], g.Weight(l))
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			var cu int
			// Loc resolves the neighbor to home index or ghost slot with
			// one read — no ownership test, no id lookup.
			if loc := ge.Loc[k]; loc >= 0 {
				cu = cmap[loc]
			} else {
				cu = ghostC[-loc-1]
			}
			if cu == cv {
				continue // intra-cluster edge vanishes
			}
			eIDs[r] = append(eIDs[r], cv, cu)
			eW[r] = append(eW[r], g.EdgeWeight(k))
		}
	}
	c.Words(2*len(g.Adj) + 2*localN)
	// The four flat arrays and their header tables go out as they are,
	// by ownership transfer: the next BuildCoarse on this assembler is
	// the first to write them again, and the SumInt that ends this call
	// is the later collective the rule asks for — every peer has read
	// its rows (the assembly below) before it enters that SumInt.
	inWIDs := c.ExchangeInts(wIDs, scratch.Grow(&a.inI, procs))
	inWVals := c.ExchangeFloats(wVals, scratch.Grow(&a.inV, procs))
	inEIDs := c.ExchangeInts(eIDs, scratch.Grow(&a.inE, procs))
	inEW := c.ExchangeFloats(eW, scratch.Grow(&a.inW, procs))

	lo2 := coarse.Home.Lo(me)
	localN2 := coarse.Home.LocalSize(me)
	coarse.Weights = make([]float64, localN2)
	for r := 0; r < procs; r++ {
		ids, vals := inWIDs[r], inWVals[r]
		for i, cv := range ids {
			coarse.Weights[cv-lo2] += vals[i]
		}
	}

	// Assemble the local coarse CSR. A stable counting sort by local
	// coarse vertex lays the contributions out row by row in arrival
	// order (source rank, then position in its message); each row is
	// then sorted by neighbor id, stably, and equal neighbors merge by
	// summing. The order in which an (l,u) group's weights are added is
	// therefore fixed by construction: arrival order.
	//
	// That order differs from the one the unstable sort over all
	// contributions used to produce, and the results are bit-identical
	// all the same because of an invariant of this runtime: a
	// CONSTRUCT-built graph has no edge weights (EdgeW nil, every fine
	// edge counts 1.0), so every coarse edge weight at every level is a
	// sum of 1.0s — an integer far below 2^53, exact in any order
	// (TestBuildCoarseWeightsAreCounts pins it). A caller that starts a
	// ladder from fractional edge weights gets a deterministic result,
	// not the old one.
	xadj := make([]int, localN2+1)
	for r := 0; r < procs; r++ {
		ids := inEIDs[r]
		for i := 0; i+1 < len(ids); i += 2 {
			xadj[ids[i]-lo2+1]++
		}
	}
	for l := 0; l < localN2; l++ {
		xadj[l+1] += xadj[l]
	}
	total := xadj[localN2]
	tris := scratch.Grow(&a.tris, total)
	// The fill advances xadj[l] through row l, so afterwards xadj[l] is
	// where row l ends.
	for r := 0; r < procs; r++ {
		ids, ws := inEIDs[r], inEW[r]
		for i := 0; i+1 < len(ids); i += 2 {
			l := ids[i] - lo2
			tris[xadj[l]] = coarseContrib{ids[i+1], ws[i/2]}
			xadj[l]++
		}
	}
	// Sort and merge each row in place (the write cursor degSum never
	// overtakes the row being read), then copy the merged rows out at
	// their exact size.
	degSum, rowLo := 0, 0
	for l := 0; l < localN2; l++ {
		row := tris[rowLo:xadj[l]]
		rowLo = xadj[l]
		slices.SortStableFunc(row, byNeighbor)
		xadj[l] = degSum
		for i := 0; i < len(row); {
			u, w := row[i].u, 0.0
			for ; i < len(row) && row[i].u == u; i++ {
				w += row[i].w
			}
			tris[degSum] = coarseContrib{u, w}
			degSum++
		}
	}
	xadj[localN2] = degSum
	coarse.XAdj = xadj
	coarse.Adj = make([]int, degSum)
	// EdgeW stays non-nil even when this rank assembled no edges:
	// Gather's EdgeW collective is gated on nil-ness, which must be
	// rank-uniform in a bulk-synchronous machine.
	coarse.EdgeW = make([]float64, degSum)
	for i, t := range tris[:degSum] {
		coarse.Adj[i], coarse.EdgeW[i] = t.u, t.w
	}
	c.Words(3 * total)
	coarse.NEdges = c.SumInt(degSum) / 2
	return coarse
}
