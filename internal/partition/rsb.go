package partition

import (
	"sort"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// RSB is recursive spectral bisection (Simon; the paper's "eigenvalue
// partitioner"): each group of vertices is split at the weighted median
// of its approximate Fiedler vector, recursively, until nparts groups
// remain. It consumes LINK connectivity and honors LOAD weights.
//
// As in the paper the spectral solve is the expensive step: the paper
// reports 258 virtual seconds for spectral bisection of the 53K mesh on
// 32 processors versus 1.6 s for coordinate bisection. The GeoCoL graph
// is gathered (charged as graph-generation cost) and the recursive
// eigen-computation's full floating-point work is charged to every
// rank's clock — the parallelized eigensolver of the era was memory-
// and synchronization-bound and did not scale, so the replicated-cost
// model preserves the paper's partitioner-cost relationship.
//
// With Refine set, every bisection is post-processed with a
// Kernighan-Lin boundary refinement pass (the RSB-KL variant used for
// the ablation benches).
type RSB struct {
	Refine bool
}

func (r RSB) Name() string {
	if r.Refine {
		return "RSB-KL"
	}
	return "RSB"
}

// Capabilities: RSB consumes LINK connectivity.
func (RSB) Capabilities() Capabilities { return Capabilities{NeedsLink: true} }

func (r RSB) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	if !g.HasLink {
		panic("partition: RSB requires a GeoCoL LINK component")
	}
	// One refinement scratch per Partition call, shared by every
	// bisection of the recursion tree (only used with Refine set).
	var s klScratch
	return serialBisectPartition(c, g, nparts,
		func(f *geocol.Full, verts []int, frac float64) ([]int, []int, int64) {
			return spectralBisect(&s, f, verts, frac, r.Refine)
		})
}

// spectralBisect splits verts into halves at the weighted median of
// the Fiedler vector of the induced subgraph, returning the flop count
// of the solve.
func spectralBisect(s *klScratch, f *geocol.Full, verts []int, frac float64, refine bool) (left, right []int, flops int64) {
	sg := induce(s, f, verts)
	side := fiedlerSide(sg, frac)
	if refine {
		klRefine(s, sg, side, sg.totalWeight()*frac)
	}
	left, right = splitSides(sg, side)
	return left, right, sg.flops
}

// fiedlerSide marks the left side of a weighted-median split of sg
// along its approximate Fiedler vector: vertices are sorted by Fiedler
// value (tie-broken by original id for determinism) and swept until a
// frac share of the vertex weight is on the left.
func fiedlerSide(sg *subgraph, frac float64) []bool {
	fv := sg.fiedler(uint64(sg.n)*2654435761 + uint64(len(sg.adj)))

	order := make([]int, sg.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if fv[ia] != fv[ib] {
			return fv[ia] < fv[ib]
		}
		return sg.orig[ia] < sg.orig[ib]
	})
	target := sg.totalWeight() * frac
	acc := 0.0
	side := make([]bool, sg.n) // true = left
	for _, i := range order {
		if acc < target {
			side[i] = true
			acc += sg.w[i]
		}
	}
	sg.flops += int64(sg.n * 20) // sort + sweep bookkeeping
	return side
}

// splitSides partitions sg's vertices by side, returning original-id
// lists: two exactly-sized halves of one array.
func splitSides(sg *subgraph, side []bool) (left, right []int) {
	nl := 0
	for _, s := range side[:sg.n] {
		if s {
			nl++
		}
	}
	ids := make([]int, sg.n)
	left, right = ids[:0:nl], ids[nl:nl]
	for i := 0; i < sg.n; i++ {
		if side[i] {
			left = append(left, sg.orig[i])
		} else {
			right = append(right, sg.orig[i])
		}
	}
	return left, right
}

// induce extracts the subgraph of f induced by verts, which the result
// keeps as its orig (verts must not change while the subgraph lives).
// The global-to-local translation uses a scatter array rather than a
// map: bisection induces subgraphs proportional to the whole recursion
// tree, and the array keeps that linear in practice. The array lives in
// s and is never re-cleared: every call stamps its entries with a base
// above anything an earlier call wrote, so stale entries read as
// absent. The CSR is sized once, by the degree sum of verts in f (edges
// leaving the group drop out, so it is an upper bound).
//
//chaos:hotpath
func induce(s *klScratch, f *geocol.Full, verts []int) *subgraph {
	sg := &subgraph{n: len(verts), orig: verts}
	// local[v] == base+1+i marks v as vertex i of this subgraph.
	local, base := scratch.Grow(&s.local, f.N), s.localBase
	s.localBase += len(verts)
	degSum := 0
	for i, v := range verts {
		local[v] = base + 1 + i
		degSum += f.XAdj[v+1] - f.XAdj[v]
	}
	sg.xadj = make([]int, sg.n+1)
	sg.w = make([]float64, sg.n)
	sg.adj = make([]int, 0, degSum)
	if f.EdgeW != nil {
		sg.ew = make([]float64, 0, degSum)
	}
	for i, v := range verts {
		sg.w[i] = f.Weight(v)
		for k := f.XAdj[v]; k < f.XAdj[v+1]; k++ {
			if j := local[f.Adj[k]] - base - 1; j >= 0 {
				sg.adj = append(sg.adj, j)
				if f.EdgeW != nil {
					sg.ew = append(sg.ew, f.EdgeW[k])
				}
			}
		}
		sg.xadj[i+1] = len(sg.adj)
	}
	sg.flops += int64(len(sg.adj) + sg.n)
	return sg
}
