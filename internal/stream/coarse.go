package stream

import (
	"fmt"
	"io"
	"sort"
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
	conn    map[int]float64
	cand    []int // first-touch order of conn keys, for determinism
}

func newClusterer(n int, maxW float64) *clusterer {
	cl := &clusterer{
		cluster: make([]int, n),
		maxW:    maxW,
		conn:    make(map[int]float64),
	}
	for i := range cl.cluster {
		cl.cluster[i] = -1
	}
	return cl
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
		delete(cl.conn, c)
	}
	cl.cand = cand
	if best < 0 {
		best = len(cl.w)
		cl.w = append(cl.w, 0)
	}
	cl.cluster[v] = best
	cl.w[best] += wv
	return best
}

// coarse is a resident weighted CSR — the bootstrap's in-memory model.
type coarse struct {
	xadj []int
	adj  []int
	ew   []float64 // edge multiplicities
	vw   []float64 // vertex weights
}

func (g *coarse) n() int { return len(g.vw) }

// buildCoarse folds a key->weight accumulation of directed
// cross-cluster edges (key = cv*nc + cu) into a sorted CSR.
func buildCoarse(nc int, vw []float64, acc map[int64]float64) *coarse {
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	g := &coarse{
		xadj: make([]int, nc+1),
		adj:  make([]int, len(keys)),
		ew:   make([]float64, len(keys)),
		vw:   vw,
	}
	for _, k := range keys {
		g.xadj[k/int64(nc)+1]++
	}
	for c := 0; c < nc; c++ {
		g.xadj[c+1] += g.xadj[c]
	}
	at := 0
	for _, k := range keys {
		g.adj[at] = int(k % int64(nc))
		g.ew[at] = acc[k]
		at++
	}
	return g
}

// contract performs one greedy heavy-edge matching level: each
// unmatched vertex in id order pairs with its heaviest-edge unmatched
// neighbor whose combined weight stays under maxVW. Returns the
// contracted graph and the fine-to-coarse map.
func contract(g *coarse, maxVW float64) (*coarse, []int) {
	n := g.n()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	for v := 0; v < n; v++ {
		if match[v] >= 0 {
			continue
		}
		best, bw := -1, 0.0
		for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
			u := g.adj[j]
			if match[u] >= 0 || g.vw[v]+g.vw[u] > maxVW {
				continue
			}
			if g.ew[j] > bw || (g.ew[j] == bw && (best < 0 || u < best)) {
				best, bw = u, g.ew[j]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v
		}
	}
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
	vw := make([]float64, nc)
	acc := make(map[int64]float64, len(g.adj)/2)
	for v := 0; v < n; v++ {
		vw[cmap[v]] += g.vw[v]
		cv := int64(cmap[v])
		for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
			cu := int64(cmap[g.adj[j]])
			if cu != cv {
				acc[cv*int64(nc)+cu] += g.ew[j]
			}
		}
	}
	return buildCoarse(nc, vw, acc), cmap
}

// lpRefine runs capacity-constrained positive-gain sweeps over the
// resident graph: a vertex moves to the part with the largest weighted
// connectivity gain that still has room, ties toward the lighter
// target. Sweeps alternate direction and stop when a full sweep moves
// nothing.
func lpRefine(g *coarse, part []int, nparts int, capacity float64, sweeps int) {
	n := g.n()
	loads := make([]float64, nparts)
	for v := 0; v < n; v++ {
		loads[part[v]] += g.vw[v]
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
			for j := g.xadj[v]; j < g.xadj[v+1]; j++ {
				q := part[g.adj[j]]
				if conn[q] == 0 {
					touched = append(touched, q)
				}
				conn[q] += g.ew[j]
			}
			// Strict total order (gain, load, part id) — the winner must
			// not depend on adjacency traversal order, or bit-identity
			// across equivalent graph encodings breaks.
			best, bestGain := cur, 0.0
			for _, q := range touched {
				if q == cur || loads[q]+g.vw[v] > capacity {
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
				loads[cur] -= g.vw[v]
				loads[best] += g.vw[v]
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
func solveCoarse(cg *coarse, nparts int, capacity float64, opt Options) []int {
	type level struct {
		g    *coarse
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
	for _, w := range cg.vw {
		totalW += w
	}
	maxVW := 1.5 * totalW / float64(coarsenTo)
	if maxVW > capacity/4 {
		maxVW = capacity / 4
	}
	for cur.n() > coarsenTo {
		next, cmap := contract(cur, maxVW)
		if next.n()*20 > cur.n()*19 {
			break // matching stalled
		}
		ladder = append(ladder, level{cur, cmap})
		cur = next
	}

	// Initial placement: heaviest first (bin packing), scored through
	// the shared weighted placer core.
	nc := cur.n()
	pl := NewPlacer(nparts, totalW, opt)
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cur.vw[order[a]] > cur.vw[order[b]] })
	part := make([]int, nc)
	for i := range part {
		part[i] = -1
	}
	for _, v := range order {
		q := pl.PlaceWeighted(v, cur.adj[cur.xadj[v]:cur.xadj[v+1]], cur.ew[cur.xadj[v]:cur.xadj[v+1]], part)
		part[v] = q
		pl.Add(q, cur.vw[v])
	}
	lpRefine(cur, part, nparts, capacity, 16)

	for i := len(ladder) - 1; i >= 0; i-- {
		lv := ladder[i]
		fpart := make([]int, lv.g.n())
		for v := range fpart {
			fpart[v] = part[lv.cmap[v]]
		}
		lpRefine(lv.g, fpart, nparts, capacity, 8)
		part = fpart
	}
	return part
}

// bootstrap runs the clustering and model-build stream passes, solves
// the coarse model in memory, and returns the projected full partition
// (every vertex assigned, capacities respected at cluster granularity).
func bootstrap(gs GraphStream, nparts int, w []float64, totalW float64, opt Options) ([]int, error) {
	n := gs.NumVertices()
	capacity := totalW / float64(nparts) * (1 + opt.slack())
	maxCW := totalW * clusterVerts / float64(n)
	if maxCW > capacity/4 {
		maxCW = capacity / 4
	}
	if maxCW <= 0 {
		maxCW = 1
	}

	cl := newClusterer(n, maxCW)
	var slab Slab
	err := eachSlab(gs, &slab, func(s *Slab) {
		for i := 0; i < s.NVerts(); i++ {
			v := s.Lo + i
			cl.assign(v, s.Adj[s.XAdj[i]:s.XAdj[i+1]], vertexW(w, v))
		}
	})
	if err != nil {
		return nil, err
	}

	nc := len(cl.w)
	acc := make(map[int64]float64)
	err = eachSlab(gs, &slab, func(s *Slab) {
		for i := 0; i < s.NVerts(); i++ {
			cv := int64(cl.cluster[s.Lo+i])
			for _, u := range s.Adj[s.XAdj[i]:s.XAdj[i+1]] {
				cu := int64(cl.cluster[u])
				if cu != cv {
					acc[cv*int64(nc)+cu]++
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	cpart := solveCoarse(buildCoarse(nc, cl.w, acc), nparts, capacity, opt)
	part := make([]int, n)
	for v := 0; v < n; v++ {
		part[v] = cpart[cl.cluster[v]]
	}
	return part, nil
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
