package partition

import (
	"math"

	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// klRefine improves a bisection with a Kernighan-Lin / Fiduccia-
// Mattheyses style boundary pass: repeatedly move the vertex with the
// best edge-cut gain to the other side, subject to a weight-balance
// constraint, keeping the best prefix of moves. Gains are computed once
// per pass and updated incrementally as moves commit, and candidates
// are drawn from a boundary-seeded lazy max-heap (the FM bookkeeping),
// so a pass costs O(E + moves log n) — cheap enough that the multilevel
// partitioner can afford a pass at every uncoarsening level. Runs a
// small fixed number of passes; deterministic (ties broken by original
// vertex id).
func klRefine(s *klScratch, sg *subgraph, side []bool, targetLeftW float64) {
	klRefineN(s, sg, side, targetLeftW, 4)
}

// klRefineN is klRefine with an explicit pass budget; the multilevel
// partitioner spends fewer passes on interior uncoarsening levels,
// whose boundaries get re-polished at every finer level anyway.
//
//chaos:hotpath
func klRefineN(s *klScratch, sg *subgraph, side []bool, targetLeftW float64, passes int) {
	const tol = 0.02 // allowed relative imbalance around the target
	// plateau bounds how far a pass chases zero/negative-gain moves
	// past its best prefix before giving up on the hill.
	const plateau = 64

	n, w := sg.Len(), sg.Weights
	totalW := sg.totalWeight()
	slack := tol * totalW

	leftW := 0.0
	for i := 0; i < n; i++ {
		if side[i] {
			leftW += w[i]
		}
	}

	// gains[v] is the cut-weight reduction when v switches sides (unit
	// edge weights on the finest graph; aggregated multiplicities on
	// coarse graphs). All per-pass state lives in the arena scratch —
	// fully overwritten below, so steady-state calls allocate nothing
	// (gains and locked are recomputed for every vertex at each pass
	// start; stash and seq are length-reset).
	gains := scratch.Grow(&s.gains, n)
	locked := scratch.Grow(&s.locked, n)
	stash := s.stash[:0]
	h := &s.heap
	h.orig = sg.orig
	seq := s.seq[:0]

	for pass := 0; pass < passes; pass++ {
		// Seed the candidate heap with the boundary vertices; interior
		// vertices (gain -2*weighted degree) are never competitive and
		// join lazily if a neighbor's move puts them on the boundary.
		h.reset()
		for v := 0; v < n; v++ {
			g, boundary := 0.0, false
			for k := sg.XAdj[v]; k < sg.XAdj[v+1]; k++ {
				if side[sg.Adj[k]] == side[v] {
					g -= sg.EdgeWeight(k)
				} else {
					g += sg.EdgeWeight(k)
					boundary = true
				}
			}
			gains[v] = g
			if boundary {
				h.push(g, v)
			}
		}
		for i := range locked {
			locked[i] = false
		}
		seq = seq[:0]
		cum, best, bestAt := 0.0, 0.0, -1
		curLeftW := leftW

		for len(seq) < n {
			// Pop the best live candidate whose move keeps the balance
			// inside the window; balance-blocked candidates are stashed
			// and re-offered after the move commits.
			bv, bg := -1, math.Inf(-1)
			stash = stash[:0]
			for h.len() > 0 {
				e := h.pop()
				if locked[e.v] || gains[e.v] != e.gain {
					continue // stale entry
				}
				nl := curLeftW
				if side[e.v] {
					nl -= w[e.v]
				} else {
					nl += w[e.v]
				}
				if nl < targetLeftW-slack || nl > targetLeftW+slack {
					stash = append(stash, e.v)
					continue
				}
				bv, bg = e.v, e.gain
				break
			}
			for _, v := range stash {
				h.push(gains[v], v)
			}
			if bv < 0 {
				break
			}
			locked[bv] = true
			if side[bv] {
				curLeftW -= w[bv]
			} else {
				curLeftW += w[bv]
			}
			side[bv] = !side[bv]
			// Incremental gain update: every edge at bv flipped
			// internal<->external, so bv's gain negates and each
			// neighbor's moves by twice the edge weight.
			gains[bv] = -gains[bv]
			for k := sg.XAdj[bv]; k < sg.XAdj[bv+1]; k++ {
				u := sg.Adj[k]
				if side[u] == side[bv] {
					gains[u] -= 2 * sg.EdgeWeight(k)
				} else {
					gains[u] += 2 * sg.EdgeWeight(k)
				}
				if !locked[u] {
					h.push(gains[u], u)
				}
			}
			cum += bg
			seq = append(seq, bv)
			if cum > best {
				best, bestAt = cum, len(seq)-1
			}
			if bg <= 0 && len(seq)-bestAt > plateau {
				break // hill gone cold
			}
		}
		sg.flops += int64(2*len(sg.Adj) + len(seq)*64) // gain upkeep + heap ops

		// Roll back moves past the best prefix.
		for i := len(seq) - 1; i > bestAt; i-- {
			v := seq[i]
			if side[v] {
				leftW -= w[v]
			}
			side[v] = !side[v]
			if side[v] {
				leftW += w[v]
			}
		}
		// Recompute leftW exactly (cheap, avoids drift).
		leftW = 0
		for i := 0; i < n; i++ {
			if side[i] {
				leftW += w[i]
			}
		}
		if best <= 0 {
			break
		}
	}
	s.stash, s.seq = stash, seq // retain grown capacity for the next call
}

// KL is a standalone recursive Kernighan-Lin partitioner (Kernighan &
// Lin, the paper's reference [15]): each group is seeded with a
// breadth-first region-growing split — which already respects
// connectivity — and then improved with the boundary-refinement pass
// klRefine. Purely combinatorial: it needs LINK but neither GEOMETRY
// nor an eigensolver, making it the cheap connectivity-based
// alternative to RSB. Like RSB it runs on the gathered graph on rank 0
// and broadcasts the map; its (much smaller) cost is charged to every
// rank.
type KL struct{}

func (KL) Name() string { return "KL" }

// Capabilities: KL consumes LINK connectivity.
func (KL) Capabilities() Capabilities { return Capabilities{NeedsLink: true} }

func (KL) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	if !g.HasLink {
		panic("partition: KL requires a GeoCoL LINK component")
	}
	// One pair of scratches per Partition call, shared by every
	// bisection of the recursion tree; each rank runs its own call, so
	// no sharing.
	var s klScratch
	var cs csr.Scratch
	return serialBisectPartition(c, g, nparts,
		func(g *csr.Graph, verts []int, frac float64) ([]int, []int, int64) {
			return klBisect(&s, &cs, g, verts, frac)
		})
}

// klBisect seeds a split by breadth-first region growing from the
// lowest-numbered vertex until the target weight is reached, then
// refines it with klRefine.
//
//chaos:hotpath
func klBisect(s *klScratch, cs *csr.Scratch, g *csr.Graph, verts []int, frac float64) (left, right []int, flops int64) {
	sg := induce(cs, g, verts)
	n := sg.Len()
	target := sg.totalWeight() * frac

	side := scratch.Grow(&s.side, n)
	visited := scratch.Grow(&s.visited, n)
	for i := 0; i < n; i++ {
		side[i], visited[i] = false, false
	}
	grown := 0.0
	// BFS over possibly disconnected subgraphs, restarting from the
	// lowest unvisited vertex.
	queue := s.queue[:0]
	// head indexes the BFS front instead of re-slicing, so the backing
	// array survives intact for the next bisection.
	head := 0
	next := 0
	for grown < target {
		if head == len(queue) {
			for next < n && visited[next] {
				next++
			}
			if next >= n {
				break
			}
			queue = append(queue, next)
			visited[next] = true
		}
		v := queue[head]
		head++
		if grown >= target {
			break
		}
		side[v] = true
		grown += sg.Weights[v]
		for _, u := range sg.Adj[sg.XAdj[v]:sg.XAdj[v+1]] {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	sg.flops += int64(n + len(sg.Adj))
	s.queue = queue

	klRefine(s, sg, side, target)

	left, right = splitSides(sg, side)
	return left, right, sg.flops
}

// klEntry is one candidate move in the refinement heap. Entries are
// immutable snapshots: when a vertex's gain changes a fresh entry is
// pushed and the old one turns stale (detected on pop by comparing
// against the live gain).
type klEntry struct {
	gain float64
	v    int
}

// klHeap is a deterministic max-heap of move candidates: highest gain
// first, ties broken toward the smaller original vertex id.
type klHeap struct {
	orig    []int
	entries []klEntry
}

func (h *klHeap) len() int { return len(h.entries) }

// reset empties the heap keeping its backing array, so refinement
// passes reuse steady-state capacity instead of reallocating.
func (h *klHeap) reset() { h.entries = h.entries[:0] }

// before reports whether a is a higher-priority candidate than b.
func (h *klHeap) before(a, b klEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return h.orig[a.v] < h.orig[b.v]
}

//chaos:hotpath
func (h *klHeap) push(gain float64, v int) {
	h.entries = append(h.entries, klEntry{gain, v})
	i := len(h.entries) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.entries[i], h.entries[p]) {
			break
		}
		h.entries[i], h.entries[p] = h.entries[p], h.entries[i]
		i = p
	}
}

//chaos:hotpath
func (h *klHeap) pop() klEntry {
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h.entries) && h.before(h.entries[l], h.entries[m]) {
			m = l
		}
		if r < len(h.entries) && h.before(h.entries[r], h.entries[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.entries[i], h.entries[m] = h.entries[m], h.entries[i]
		i = m
	}
	return top
}
