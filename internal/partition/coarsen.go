package partition

import (
	"math"

	"chaos/internal/csr"
)

// This file implements the coarsening half of the multilevel
// partitioner: heavy-edge matching (Karypis & Kumar's HEM) collapses a
// graph level by level while vertex and edge weights are aggregated so
// every coarse graph remains a faithful summary of the finest one —
// the edge cut of a coarse partition equals the cut of its projection,
// and vertex-weight balance is preserved exactly.

// heavyEdgeMatch greedily matches each vertex with the still-unmatched
// neighbor joined by the heaviest edge; a vertex whose neighbors are
// all taken is absorbed into the cluster of its heaviest neighbor
// instead of surviving as a singleton, which speeds up the shrink rate
// (and so shortens the ladder) without hurting cut quality. Growing a
// cluster past maxW vertex weight is forbidden (maxW <= 0 disables the
// cap): the cap keeps coarse vertices small enough that the coarsest-
// level split can land within the KL refiner's balance slack.
// Deterministic: vertices are visited in index order and ties broken
// by original id. Returns the fine-to-coarse vertex map and the coarse
// vertex count.
func heavyEdgeMatch(sg *subgraph, maxW float64) (cmap []int, nc int) {
	n, w := sg.Len(), sg.Weights
	cmap = make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	cw := make([]float64, 0, n/2+1) // weight of each coarse cluster so far
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		// First choice: the heaviest edge to an unmatched neighbor.
		best, bestW := -1, math.Inf(-1)
		for k := sg.XAdj[v]; k < sg.XAdj[v+1]; k++ {
			u := sg.Adj[k]
			if cmap[u] >= 0 {
				continue
			}
			if maxW > 0 && w[v]+w[u] > maxW {
				continue
			}
			ew := sg.EdgeWeight(k)
			if ew > bestW || (ew == bestW && sg.orig[u] < sg.orig[best]) {
				best, bestW = u, ew
			}
		}
		if best >= 0 {
			cmap[v], cmap[best] = nc, nc
			cw = append(cw, w[v]+w[best])
			nc++
			continue
		}
		// Fallback: absorb into the heaviest already-formed neighbor
		// cluster that still has weight headroom.
		best, bestW = -1, math.Inf(-1)
		for k := sg.XAdj[v]; k < sg.XAdj[v+1]; k++ {
			u := sg.Adj[k]
			if cmap[u] < 0 {
				continue // unmatched but over the pair cap
			}
			if maxW > 0 && cw[cmap[u]]+w[v] > maxW {
				continue
			}
			ew := sg.EdgeWeight(k)
			if ew > bestW || (ew == bestW && sg.orig[u] < sg.orig[best]) {
				best, bestW = u, ew
			}
		}
		if best >= 0 {
			c := cmap[best]
			cmap[v] = c
			cw[c] += w[v]
			continue
		}
		cmap[v] = nc
		cw = append(cw, w[v])
		nc++
	}
	sg.flops += int64(2*len(sg.Adj) + n)
	return cmap, nc
}

// contract builds the coarse subgraph induced by cmap, delegating the
// CSR and weight aggregation to csr.Scratch.Contract (shared across a
// ladder so its scratch is amortized). The coarse vertex inherits the
// smallest original id among its members, keeping the deterministic
// tie-breaks of the refiner meaningful at every level.
func contract(s *csr.Scratch, sg *subgraph, cmap []int, nc int) *subgraph {
	cs := &subgraph{Graph: s.Contract(&sg.Graph, cmap, nc), orig: make([]int, nc)}
	for i := range cs.orig {
		cs.orig[i] = -1
	}
	for v, c := range cmap {
		if cs.orig[c] < 0 || sg.orig[v] < cs.orig[c] {
			cs.orig[c] = sg.orig[v]
		}
	}
	sg.flops += int64(2*len(sg.Adj) + 2*len(cmap))
	return cs
}

// coarsenSerial builds the serial coarsening ladder of levels[0]:
// each next level is the heavy-edge contraction of the last, with
// cmaps[l] mapping level l onto level l+1, until a level has at most
// stopAt vertices. The cluster-weight cap (1% of levels[0]'s weight)
// keeps the coarsest split within klRefine's 2% balance slack;
// the stall check stops when matching no longer shrinks the graph
// meaningfully (star-like or cap-bound regions). The caller passes the
// one-element levels slice so that it can live on the caller's stack.
func coarsenSerial(s *csr.Scratch, levels []*subgraph, stopAt int) ([]*subgraph, [][]int) {
	var cmaps [][]int
	maxW := levels[0].totalWeight() * 0.01
	for cur := levels[0]; cur.Len() > stopAt; {
		cmap, nc := heavyEdgeMatch(cur, maxW)
		if nc > cur.Len()*9/10 {
			break
		}
		next := contract(s, cur, cmap, nc)
		cmaps = append(cmaps, cmap)
		levels = append(levels, next)
		cur = next
	}
	return levels, cmaps
}
