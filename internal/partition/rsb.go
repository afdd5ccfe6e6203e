package partition

import (
	"sort"

	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
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
type RSB struct{}

func (RSB) Name() string { return "RSB" }

// Capabilities: RSB consumes LINK connectivity.
func (RSB) Capabilities() Capabilities { return Capabilities{NeedsLink: true} }

func (RSB) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	if !g.HasLink {
		panic("partition: RSB requires a GeoCoL LINK component")
	}
	// One scratch per Partition call, shared by every bisection of the
	// recursion tree.
	var s csr.Scratch
	return gatheredSolve(c, g, func(f *csr.Graph) ([]int, int64) {
		return recursiveBisect(f, nparts,
			func(g *csr.Graph, verts []int, frac float64) ([]int, []int, int64) {
				return spectralBisect(&s, g, verts, frac)
			})
	})
}

// spectralBisect splits verts into halves at the weighted median of
// the Fiedler vector of the induced subgraph, returning the flop count
// of the solve.
func spectralBisect(s *csr.Scratch, g *csr.Graph, verts []int, frac float64) (left, right []int, flops int64) {
	sg := induce(s, g, verts)
	left, right = splitSides(sg, fiedlerSide(sg, frac))
	return left, right, sg.flops
}

// fiedlerSide marks the left side of a weighted-median split of sg
// along its approximate Fiedler vector: vertices are sorted by Fiedler
// value (tie-broken by original id for determinism) and swept until a
// frac share of the vertex weight is on the left.
func fiedlerSide(sg *subgraph, frac float64) []bool {
	n := sg.Len()
	fv := sg.fiedler(uint64(n)*2654435761 + uint64(len(sg.Adj)))

	order := make([]int, n)
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
	side := make([]bool, n) // true = left
	for _, i := range order {
		if acc < target {
			side[i] = true
			acc += sg.Weights[i]
		}
	}
	sg.flops += int64(n * 20) // sort + sweep bookkeeping
	return side
}

// splitSides partitions sg's vertices by side, returning original-id
// lists: two exactly-sized halves of one array.
func splitSides(sg *subgraph, side []bool) (left, right []int) {
	n := sg.Len()
	nl := 0
	for _, s := range side[:n] {
		if s {
			nl++
		}
	}
	ids := make([]int, n)
	left, right = ids[:0:nl], ids[nl:nl]
	for i := 0; i < n; i++ {
		if side[i] {
			left = append(left, sg.orig[i])
		} else {
			right = append(right, sg.orig[i])
		}
	}
	return left, right
}

// induce extracts the subgraph of g induced by verts
// (csr.Scratch.Induce), which the result keeps as its orig (verts must
// not change while the subgraph lives).
func induce(s *csr.Scratch, g *csr.Graph, verts []int) *subgraph {
	sg := &subgraph{Graph: s.Induce(g, verts), orig: verts}
	sg.flops += int64(len(sg.Adj) + len(verts))
	return sg
}
