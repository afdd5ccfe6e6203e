package stream

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"chaos/internal/csr"
	"chaos/internal/xrand"
)

// The buffered bootstrap. A blind greedy pass — even restreamed — is a
// label-propagation process: it converges to a locally smooth
// assignment whose cut stalls well above what an in-memory multilevel
// partitioner reaches, because no sequence of single-vertex moves can
// rearrange whole regions. The bootstrap closes that gap while keeping
// the out-of-core contract:
//
//  pass 1  streaming clustering — each arriving vertex joins the
//          best-connected cluster of its already-seen neighbors,
//          capped at a handful of vertices per cluster;
//  pass 2  coarse model build — cross-cluster edges accumulate into a
//          weighted coarse graph whose size is vertex-proportional
//          (clusters x coarse degree), never edge-proportional;
//  solve   an in-memory mini-multilevel on the coarse model: greedy
//          heavy-edge matching down to a few dozen vertices, weighted
//          greedy initial placement, and capacity-constrained
//          positive-gain refinement sweeps on the way back up;
//  project part[v] = coarsePart[cluster[v]], after which the driver's
//          restream passes polish the cluster boundaries.
//
// Resident state: the O(n) cluster vector (allowed — the part vector
// is already O(n)) plus the coarse graphs, totalW/clusterCap >= n/16
// times smaller than the input. Everything is deterministic in
// (stream, nparts, Options).

// bootstrapMin is the vertex count below which Partition skips the
// bootstrap: tiny graphs gain nothing over restreamed greedy and the
// coarse model would be a constant-factor copy of the input.
const bootstrapMin = 64

// clusterVerts is the target cluster granularity in average vertex
// weights — the fine-to-coarse contraction factor of pass 1.
const clusterVerts = 16

// clusterer is the pass-1 state: the grow-only cluster table and the
// per-vertex scoring scratch.
type clusterer struct {
	cluster []int     // vertex -> cluster (-1 until seen)
	w       []float64 // cluster weights, grow-only
	maxW    float64   // cluster capacity
	conn    []float64 // per cluster, alongside w: neighbors of the vertex being placed
	cand    []int     // clusters with nonzero conn, first-touch order, for determinism
}

// assign picks a cluster for vertex v given its neighbor ids: the one
// holding most already-clustered neighbors that still has room, ties
// broken toward the lighter then the lower-numbered cluster; a fresh
// cluster when none qualifies. Applies and returns the choice.
func (cl *clusterer) assign(v int, adj []int, wv float64) int {
	cand := cl.cand[:0]
	for _, u := range adj {
		c := cl.cluster[u]
		if c < 0 {
			continue
		}
		if cl.conn[c] == 0 {
			cand = append(cand, c)
		}
		cl.conn[c]++
	}
	best, bestConn := -1, 0.0
	for _, c := range cand {
		if cl.w[c]+wv > cl.maxW {
			continue
		}
		conn := cl.conn[c]
		if conn > bestConn ||
			(conn == bestConn && best >= 0 && (cl.w[c] < cl.w[best] ||
				(cl.w[c] == cl.w[best] && c < best))) {
			best, bestConn = c, conn
		}
	}
	for _, c := range cand {
		cl.conn[c] = 0
	}
	cl.cand = cand
	if best < 0 {
		best = len(cl.w)
		cl.w = append(cl.w, 0)
		cl.conn = append(cl.conn, 0)
	}
	cl.cluster[v] = best
	cl.w[best] += wv
	return best
}

// pairCount counts the directed cross-cluster edges of pass 2 keyed by
// their (from, to) cluster pair, in an open-addressing table (linear
// probing, at most half full). Its memory follows the distinct coarse
// edges, so the model stays vertex-proportional; and unlike a single
// from*nc+to key, no pair of cluster ids can overflow it.
type pairCount struct {
	slots []pairSlot
	used  int
}

// pairSlot is one table entry; n == 0 marks a free slot.
type pairSlot struct{ from, to, n int }

// find returns the slot holding (from, to), or the free slot where it
// belongs.
func (pc *pairCount) find(from, to int) *pairSlot {
	mask := uint64(len(pc.slots) - 1)
	for i := xrand.Hash64(uint64(from)*0x9e3779b97f4a7c15^uint64(to)) & mask; ; i = (i + 1) & mask {
		if s := &pc.slots[i]; s.n == 0 || s.from == from && s.to == to {
			return s
		}
	}
}

// inc counts one edge from cluster from to cluster to.
func (pc *pairCount) inc(from, to int) {
	if 2*pc.used >= len(pc.slots) {
		old := pc.slots
		pc.slots = make([]pairSlot, max(16, 2*len(old)))
		for _, o := range old {
			if o.n > 0 {
				*pc.find(o.from, o.to) = o
			}
		}
	}
	s := pc.find(from, to)
	if s.n == 0 {
		s.from, s.to = from, to
		pc.used++
	}
	s.n++
}

// coarse folds the counted edges into a CSR over the len(vw) clusters
// by counting each row, then sorts every row by neighbor id.
func (pc *pairCount) coarse(cs *csr.Scratch, vw []float64) csr.Graph {
	nc := len(vw)
	g := csr.Graph{XAdj: make([]int, nc+1), Adj: make([]int, pc.used), EdgeW: make([]float64, pc.used), Weights: vw}
	for _, s := range pc.slots {
		if s.n > 0 {
			g.XAdj[s.from]++
		}
	}
	for c := 1; c <= nc; c++ {
		g.XAdj[c] += g.XAdj[c-1] // the end of row c
	}
	for _, s := range pc.slots {
		if s.n > 0 {
			g.XAdj[s.from]--
			k := g.XAdj[s.from]
			g.Adj[k], g.EdgeW[k] = s.to, float64(s.n)
		}
	}
	cs.SortRows(&g)
	return g
}

// contract performs one greedy heavy-edge matching level: each
// unmatched vertex in id order pairs with its heaviest-edge unmatched
// neighbor whose combined weight stays under maxVW. Returns the
// contracted graph, its rows sorted by neighbor id, and the
// fine-to-coarse map.
func contract(cs *csr.Scratch, g *csr.Graph, maxVW float64) (csr.Graph, []int) {
	n := g.Len()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for v := 0; v < n; v++ {
		if match[v] >= 0 {
			continue
		}
		best, bw := -1, 0.0
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			u := g.Adj[j]
			if match[u] >= 0 || g.Weights[v]+g.Weights[u] > maxVW {
				continue
			}
			if g.EdgeW[j] > bw || (g.EdgeW[j] == bw && (best < 0 || u < best)) {
				best, bw = u, g.EdgeW[j]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v
		}
	}
	// Coarse ids follow the leaders (the lower id of a pair) in order,
	// so a pair's one bucket lists the leader first and every weight is
	// summed leader-first.
	cmap := make([]int, n)
	nc := 0
	for v := 0; v < n; v++ {
		if match[v] >= v { // representative: self-matched or pair leader
			cmap[v] = nc
			if match[v] > v {
				cmap[match[v]] = nc
			}
			nc++
		}
	}
	cg := cs.Contract(g, cmap, nc)
	cs.SortRows(&cg)
	return cg, cmap
}

// lpRefine runs capacity-constrained positive-gain sweeps over the
// resident graph: a vertex moves to the part with the largest weighted
// connectivity gain that still has room, ties toward the lighter
// target. Sweeps alternate direction and stop when a full sweep moves
// nothing.
func lpRefine(g *csr.Graph, part []int, nparts int, capacity float64, sweeps int) {
	n := g.Len()
	vw := g.Weights
	loads := make([]float64, nparts)
	for v := 0; v < n; v++ {
		loads[part[v]] += vw[v]
	}
	conn := make([]float64, nparts)
	touched := make([]int, 0, nparts)
	for s := 0; s < sweeps; s++ {
		moved := 0
		for i := 0; i < n; i++ {
			v := i
			if s%2 == 1 {
				v = n - 1 - i
			}
			cur := part[v]
			touched = touched[:0]
			for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
				q := part[g.Adj[j]]
				if conn[q] == 0 {
					touched = append(touched, q)
				}
				conn[q] += g.EdgeW[j]
			}
			// Strict total order (gain, load, part id) — the winner must
			// not depend on adjacency traversal order, or bit-identity
			// across equivalent graph encodings breaks.
			best, bestGain := cur, 0.0
			for _, q := range touched {
				if q == cur || loads[q]+vw[v] > capacity {
					continue
				}
				gain := conn[q] - conn[cur]
				if gain > bestGain ||
					(gain == bestGain && gain > 0 && (loads[q] < loads[best] ||
						(loads[q] == loads[best] && q < best))) {
					best, bestGain = q, gain
				}
			}
			for _, q := range touched {
				conn[q] = 0
			}
			if best != cur {
				loads[cur] -= vw[v]
				loads[best] += vw[v]
				part[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// solveCoarse partitions the resident coarse model with a
// mini-multilevel: match-and-contract down to a few dozen vertices,
// place the coarsest greedily in decreasing-weight order, then project
// and lpRefine back up through every level (the input level included).
func solveCoarse(cs *csr.Scratch, cg csr.Graph, nparts int, capacity float64, opt Options) []int {
	type level struct {
		g    csr.Graph
		cmap []int
	}
	var ladder []level
	cur := cg
	// Stop with ~32 vertices per part and cap matched weights near the
	// coarsest average: refinement moves must stay much smaller than
	// the per-part slack (capacity - ideal), or the coarsest placement
	// freezes and no sweep can fix it.
	coarsenTo := 32 * nparts
	if coarsenTo < 64 {
		coarsenTo = 64
	}
	var totalW float64
	for _, w := range cg.Weights {
		totalW += w
	}
	maxVW := 1.5 * totalW / float64(coarsenTo)
	if maxVW > capacity/4 {
		maxVW = capacity / 4
	}
	for cur.Len() > coarsenTo {
		next, cmap := contract(cs, &cur, maxVW)
		if next.Len()*20 > cur.Len()*19 {
			break // matching stalled
		}
		ladder = append(ladder, level{cur, cmap})
		cur = next
	}

	// Initial placement: heaviest first (bin packing), scored through
	// the shared weighted placer core.
	nc := cur.Len()
	pl := NewPlacer(nparts, totalW, opt)
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cur.Weights[b], cur.Weights[a]) })
	part := make([]int, nc)
	for i := range part {
		part[i] = -1
	}
	for _, v := range order {
		lo, hi := cur.XAdj[v], cur.XAdj[v+1]
		q := pl.Place(v, cur.Adj[lo:hi], cur.EdgeW[lo:hi], part)
		part[v] = q
		pl.Add(q, cur.Weights[v])
	}
	lpRefine(&cur, part, nparts, capacity, 16)

	for i := len(ladder) - 1; i >= 0; i-- {
		lv := ladder[i]
		fpart := make([]int, len(lv.cmap))
		for v := range fpart {
			fpart[v] = part[lv.cmap[v]]
		}
		lpRefine(&lv.g, fpart, nparts, capacity, 8)
		part = fpart
	}
	return part
}

// bootstrap runs the clustering and model-build stream passes through
// the caller's slab, solves the coarse model in memory, and writes the
// projected full partition into part (every vertex assigned,
// capacities respected at cluster granularity). part, all -1 on
// entry, holds the cluster vector until the projection overwrites it.
func bootstrap(gs GraphStream, slab *Slab, part []int, nparts int, w []float64, totalW float64, opt Options) error {
	n := len(part)
	capacity := totalW / float64(nparts) * (1 + opt.slack())
	maxCW := totalW * clusterVerts / float64(n)
	if maxCW > capacity/4 {
		maxCW = capacity / 4
	}
	if maxCW <= 0 {
		maxCW = 1
	}

	cl := &clusterer{cluster: part, maxW: maxCW}
	err := eachSlab(gs, slab, func(s *Slab) {
		for i := 0; i < s.NVerts(); i++ {
			v := s.Lo + i
			cl.assign(v, s.Adj[s.XAdj[i]:s.XAdj[i+1]], vertexW(w, v))
		}
	})
	if err != nil {
		return err
	}

	// A lattice cluster has a dozen coarse neighbors: room for 16 each.
	edges := &pairCount{slots: make([]pairSlot, 1<<bits.Len(uint(32*len(cl.w))))}
	err = eachSlab(gs, slab, func(s *Slab) {
		for i := 0; i < s.NVerts(); i++ {
			cv := cl.cluster[s.Lo+i]
			for _, u := range s.Adj[s.XAdj[i]:s.XAdj[i+1]] {
				if cu := cl.cluster[u]; cu != cv {
					edges.inc(cv, cu)
				}
			}
		}
	})
	if err != nil {
		return err
	}

	// One scratch serves the model's row sort and every contraction.
	var cs csr.Scratch
	cpart := solveCoarse(&cs, edges.coarse(&cs, cl.w), nparts, capacity, opt)
	for v, c := range part {
		part[v] = cpart[c]
	}
	return nil
}

// eachSlab replays gs once, calling fn per slab and enforcing the
// contiguous-coverage contract: slabs arrive in vertex order, without
// gaps, and cover every vertex.
func eachSlab(gs GraphStream, s *Slab, fn func(*Slab)) error {
	if err := gs.Reset(); err != nil {
		return err
	}
	expect := 0
	for {
		err := gs.Next(s)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if s.Lo != expect {
			return fmt.Errorf("stream: slab starts at vertex %d, want %d", s.Lo, expect)
		}
		fn(s)
		expect = s.Lo + s.NVerts()
	}
	if expect != gs.NumVertices() {
		return fmt.Errorf("stream: stream ended at vertex %d of %d", expect, gs.NumVertices())
	}
	return nil
}
