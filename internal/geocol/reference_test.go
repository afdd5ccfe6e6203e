package geocol

import (
	"fmt"
	"sort"

	"chaos/internal/dist"
	"chaos/internal/machine"
)

// This file keeps the bodies the count → prefix-sum → fill assembly
// replaced, word for word, as oracles for the differential tests in
// assembly_test.go and for FuzzGhostExchange. The exchange pattern has
// a specification instead (specExchange).

// refBuild is Build for a LINK-only CONSTRUCT over refBuildLink.
func refBuild(c *machine.Ctx, n int, e1, e2 []int) *Graph {
	g := &Graph{N: n, Home: dist.NewBlock(n, c.Procs()), HasLink: true}
	g.refBuildLink(c, e1, e2)
	return g
}

// refBuildLink is the parent commit's buildLink, verbatim: it routes each edge endpoint to the home rank of the vertex,
// then assembles the deduplicated local CSR.
func (g *Graph) refBuildLink(c *machine.Ctx, e1, e2 []int) {
	p := c.Procs()
	out := make([][]int, p)
	emit := func(u, v int) {
		if u < 0 || u >= g.N || v < 0 || v >= g.N {
			panic(fmt.Sprintf("geocol: LINK edge (%d,%d) out of range [0,%d)", u, v, g.N))
		}
		if u == v {
			return // self-loops carry no dependence
		}
		out[g.Home.Owner(u)] = append(out[g.Home.Owner(u)], u, v)
	}
	for i := range e1 {
		emit(e1[i], e2[i])
		emit(e2[i], e1[i])
	}
	c.Words(4 * len(e1))
	in := c.AlltoAllInts(out)

	localN := g.Home.LocalSize(c.Rank())
	lo := g.Home.Lo(c.Rank())
	adj := make([][]int, localN)
	for src := 0; src < p; src++ {
		pairs := in[src]
		for i := 0; i+1 < len(pairs); i += 2 {
			u, v := pairs[i], pairs[i+1]
			adj[u-lo] = append(adj[u-lo], v)
		}
	}
	// Sort and dedup each adjacency list for determinism.
	g.XAdj = make([]int, localN+1)
	g.Adj = g.Adj[:0]
	degSum := 0
	for l := 0; l < localN; l++ {
		lst := adj[l]
		sort.Ints(lst)
		prev := -1
		for _, v := range lst {
			if v != prev {
				g.Adj = append(g.Adj, v)
				prev = v
				degSum++
			}
		}
		g.XAdj[l+1] = len(g.Adj)
	}
	c.Words(3 * degSum)
	g.NEdges = c.SumInt(degSum) / 2
}

// refAssembler is the parent commit's CoarseAssembler, verbatim. It holds the reusable scratch of the distributed
// contraction (BuildCoarse): the ghost copy of the clustering, the
// per-rank weight/edge routing tables, and the contribution triples of
// the local CSR assembly. Like Contractor it is plain per-goroutine
// state — the zero value is ready, buffers grow to the steady-state
// high-water mark and are reused across levels and epochs, and nothing
// the caller retains aliases them (the coarse Graph is always freshly
// allocated).
type refAssembler struct {
	ghostC []int
	wIDs   [][]int
	wVals  [][]float64
	eIDs   [][]int
	eW     [][]float64
	tris   []refContrib
}

// refContrib is one routed fine-edge contribution: local coarse
// source, global coarse neighbor, weight.
type refContrib struct {
	l, u int
	w    float64
}

// refGrowRankInts sizes a per-rank routing table to procs entries and
// resets each entry to length zero, keeping every backing array; the
// float twin below is identical.
func refGrowRankInts(s *[][]int, procs int) [][]int {
	if cap(*s) < procs {
		*s = make([][]int, procs)
	}
	*s = (*s)[:procs]
	for r := range *s {
		(*s)[r] = (*s)[r][:0]
	}
	return *s
}

func refGrowRankFloats(s *[][]float64, procs int) [][]float64 {
	if cap(*s) < procs {
		*s = make([][]float64, procs)
	}
	*s = (*s)[:procs]
	for r := range *s {
		(*s)[r] = (*s)[r][:0]
	}
	return *s
}

// refBuildCoarse is the parent commit's BuildCoarse, verbatim — the
// unstable sort.Slice over every contribution included. It
// collectively contracts a block-distributed Graph under a clustering
// without ever gathering it. cmap maps each of this rank's home-local
// fine vertices to a global coarse vertex id in [0, coarseN); the
// clustering may freely cross rank boundaries (a distributed matcher
// assigns both endpoints of a matched edge the same coarse id).
//
// Every rank routes its fine vertex weights and fine edges to the BLOCK
// owner of the coarse endpoint, where contributions from all ranks are
// aggregated exactly as Contractor.Contract does serially: coarse
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
func (a *refAssembler) refBuildCoarse(c *machine.Ctx, g *Graph, ge *GhostExchange, cmap []int, coarseN int) *Graph {
	me, procs := c.Rank(), c.Procs()
	ghostC := ge.PushIntsInto(c, cmap, a.ghostC)
	a.ghostC = ghostC

	coarse := &Graph{N: coarseN, Home: dist.NewBlock(coarseN, procs), HasLink: true}
	localN := g.LocalN(me)

	// Route (coarse id, weight) and (coarse src, coarse dst, weight) to
	// the coarse owner of the (source) coarse vertex. Edge ids and edge
	// weights travel in two parallel exchanges with matching order.
	wIDs := refGrowRankInts(&a.wIDs, procs)
	wVals := refGrowRankFloats(&a.wVals, procs)
	eIDs := refGrowRankInts(&a.eIDs, procs)
	eW := refGrowRankFloats(&a.eW, procs)
	for l := 0; l < localN; l++ {
		cv := cmap[l]
		r := coarse.Home.Owner(cv)
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
			w := 1.0
			if g.EdgeW != nil {
				w = g.EdgeW[k]
			}
			eIDs[r] = append(eIDs[r], cv, cu)
			eW[r] = append(eW[r], w)
		}
	}
	c.Words(2*len(g.Adj) + 2*localN)
	inWIDs := c.AlltoAllInts(wIDs)
	// wVals and eW are next written in the next call, after this call's
	// SumInt: the later collective the ExchangeFloats rule asks for.
	inWVals := c.ExchangeFloats(wVals, nil)
	inEIDs := c.AlltoAllInts(eIDs)
	inEW := c.ExchangeFloats(eW, nil)

	lo2 := coarse.Home.Lo(me)
	localN2 := coarse.Home.LocalSize(me)
	coarse.Weights = make([]float64, localN2)
	for r := 0; r < procs; r++ {
		ids, vals := inWIDs[r], inWVals[r]
		for i, cv := range ids {
			coarse.Weights[cv-lo2] += vals[i]
		}
	}

	// Assemble the local coarse CSR: collect contributions, sort by
	// (local coarse vertex, neighbor), merge duplicates by summing.
	tris := a.tris[:0]
	for r := 0; r < procs; r++ {
		ids, ws := inEIDs[r], inEW[r]
		for i := 0; i+1 < len(ids); i += 2 {
			tris = append(tris, refContrib{ids[i] - lo2, ids[i+1], ws[i/2]})
		}
	}
	a.tris = tris
	// sort.Slice, NOT slices.SortFunc: both are unstable, and equal
	// (l,u) groups below sum their float weights in sort output order —
	// the exact algorithm is part of the bit-identity contract.
	sort.Slice(tris, func(a, b int) bool {
		if tris[a].l != tris[b].l {
			return tris[a].l < tris[b].l
		}
		return tris[a].u < tris[b].u
	})
	coarse.XAdj = make([]int, localN2+1)
	// EdgeW stays non-nil even when this rank assembled no edges:
	// Gather's EdgeW collective is gated on nil-ness, which must be
	// rank-uniform in a bulk-synchronous machine.
	coarse.EdgeW = make([]float64, 0, len(tris))
	degSum := 0
	for i := 0; i < len(tris); {
		j := i
		w := 0.0
		for ; j < len(tris) && tris[j].l == tris[i].l && tris[j].u == tris[i].u; j++ {
			w += tris[j].w
		}
		coarse.Adj = append(coarse.Adj, tris[i].u)
		coarse.EdgeW = append(coarse.EdgeW, w)
		coarse.XAdj[tris[i].l+1] = len(coarse.Adj)
		degSum++
		i = j
	}
	for l := 0; l < localN2; l++ {
		if coarse.XAdj[l+1] < coarse.XAdj[l] {
			coarse.XAdj[l+1] = coarse.XAdj[l]
		}
	}
	c.Words(3 * len(tris))
	coarse.NEdges = c.SumInt(degSum) / 2
	return coarse
}
