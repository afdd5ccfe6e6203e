package partition

import (
	"fmt"
	"math"

	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// RCB is recursive coordinate bisection (Berger & Bokhari): the
// geometry-based partitioner the paper calls "recursive binary
// coordinate bisection". At each level the current vertex group is cut
// at the weighted median along its widest coordinate direction, and
// the halves are recursed on until every part holds one group. RCB
// consumes GEOMETRY (and LOAD when present) and runs fully distributed:
// extents, weights and medians are found with collectives, never by
// gathering the point set.
type RCB struct{}

func (RCB) Name() string { return "RCB" }

// Capabilities: RCB consumes GEOMETRY.
func (RCB) Capabilities() Capabilities { return Capabilities{NeedsGeometry: true} }

func (RCB) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	if !g.HasGeom {
		panic("partition: RCB requires a GeoCoL GEOMETRY component")
	}
	localN := g.LocalN(c.Rank())
	part := make([]int, localN)
	verts := make([]int, localN)
	for l := range verts {
		verts[l] = l
	}
	// Iterative tree walk in deterministic order; every rank expands
	// tasks identically, so the embedded collectives stay matched.
	stack := []splitTask{{verts: verts, partLo: 0, nparts: nparts}}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.nparts == 1 {
			for _, v := range t.verts {
				part[v] = t.partLo
			}
			continue
		}
		//chaosvet:ignore spmdcollective stack length trajectory is replicated: every rank expands the same pre-order split tree, only the vert contents are rank-local
		d := widestDim(c, g, t.verts)
		nl := halves(t.nparts)
		//chaosvet:ignore spmdcollective stack length trajectory is replicated: every rank expands the same pre-order split tree, only the vert contents are rank-local
		left, right := weightedKeySplit(c, g, t.verts, g.Coords[d], float64(nl)/float64(t.nparts))
		// Push right first so left is processed next (pre-order).
		stack = append(stack,
			splitTask{verts: right, partLo: t.partLo + nl, nparts: t.nparts - nl},
			splitTask{verts: left, partLo: t.partLo, nparts: nl},
		)
	}
	return part
}

// widestDim finds the coordinate direction with the largest global
// extent over the group. Collective.
func widestDim(c *machine.Ctx, g *geocol.Graph, verts []int) int {
	best, bestSpan := 0, -1.0
	for d := 0; d < g.Dim; d++ {
		lo, hi := 1e308, -1e308
		col := g.Coords[d]
		for _, v := range verts {
			if col[v] < lo {
				lo = col[v]
			}
			if col[v] > hi {
				hi = col[v]
			}
		}
		lo = c.MinFloat(lo)
		hi = c.MaxFloat(hi)
		if span := hi - lo; span > bestSpan {
			best, bestSpan = d, span
		}
	}
	c.Words(2 * len(verts) * g.Dim)
	return best
}

// Inertial is inertial (principal-axis) bisection: like RCB but each
// cut is made along the group's principal inertia axis rather than a
// coordinate direction, which adapts to meshes not aligned with the
// axes. Requires GEOMETRY; honors LOAD.
type Inertial struct{}

func (Inertial) Name() string { return "INERTIAL" }

// Capabilities: INERTIAL consumes GEOMETRY.
func (Inertial) Capabilities() Capabilities { return Capabilities{NeedsGeometry: true} }

func (Inertial) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	if !g.HasGeom {
		panic("partition: INERTIAL requires a GeoCoL GEOMETRY component")
	}
	localN := g.LocalN(c.Rank())
	part := make([]int, localN)
	verts := make([]int, localN)
	for l := range verts {
		verts[l] = l
	}
	stack := []splitTask{{verts: verts, partLo: 0, nparts: nparts}}
	key := make([]float64, localN)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.nparts == 1 {
			for _, v := range t.verts {
				part[v] = t.partLo
			}
			continue
		}
		//chaosvet:ignore spmdcollective stack length trajectory is replicated: every rank expands the same pre-order split tree, only the vert contents are rank-local
		axis, centroid := principalAxis(c, g, t.verts)
		for _, v := range t.verts {
			s := 0.0
			for d := 0; d < g.Dim; d++ {
				s += (g.Coords[d][v] - centroid[d]) * axis[d]
			}
			key[v] = s
		}
		c.Flops(2 * g.Dim * len(t.verts))
		nl := halves(t.nparts)
		//chaosvet:ignore spmdcollective stack length trajectory is replicated: every rank expands the same pre-order split tree, only the vert contents are rank-local
		left, right := weightedKeySplit(c, g, t.verts, key, float64(nl)/float64(t.nparts))
		stack = append(stack,
			splitTask{verts: right, partLo: t.partLo + nl, nparts: t.nparts - nl},
			splitTask{verts: left, partLo: t.partLo, nparts: nl},
		)
	}
	return part
}

// principalAxis computes the dominant eigenvector of the group's
// weighted covariance matrix by power iteration on the (replicated)
// dim×dim matrix assembled with collectives. Collective.
func principalAxis(c *machine.Ctx, g *geocol.Graph, verts []int) (axis, centroid []float64) {
	dim := g.Dim
	if dim > 8 {
		panic(fmt.Sprintf("partition: INERTIAL supports <= 8 dimensions, got %d", dim))
	}
	// Weighted centroid.
	wsum := 0.0
	sums := make([]float64, dim)
	for _, v := range verts {
		w := g.Weight(v)
		wsum += w
		for d := 0; d < dim; d++ {
			sums[d] += w * g.Coords[d][v]
		}
	}
	wTot := c.SumFloat(wsum)
	centroid = make([]float64, dim)
	for d := 0; d < dim; d++ {
		centroid[d] = c.SumFloat(sums[d])
		if wTot > 0 {
			centroid[d] /= wTot
		}
	}
	// Covariance (upper triangle, then mirrored).
	cov := make([]float64, dim*dim)
	for _, v := range verts {
		w := g.Weight(v)
		for a := 0; a < dim; a++ {
			da := g.Coords[a][v] - centroid[a]
			for b := a; b < dim; b++ {
				db := g.Coords[b][v] - centroid[b]
				cov[a*dim+b] += w * da * db
			}
		}
	}
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			cov[a*dim+b] = c.SumFloat(cov[a*dim+b])
			cov[b*dim+a] = cov[a*dim+b]
		}
	}
	c.Flops(len(verts) * dim * (dim + 2))
	// Power iteration, deterministic start.
	axis = make([]float64, dim)
	axis[0] = 1
	tmp := make([]float64, dim)
	for it := 0; it < 50; it++ {
		for a := 0; a < dim; a++ {
			s := 0.0
			for b := 0; b < dim; b++ {
				s += cov[a*dim+b] * axis[b]
			}
			tmp[a] = s
		}
		norm := 0.0
		for a := 0; a < dim; a++ {
			norm += tmp[a] * tmp[a]
		}
		if norm == 0 {
			break // degenerate geometry; keep current axis
		}
		inv := 1 / math.Sqrt(norm)
		for a := 0; a < dim; a++ {
			axis[a] = tmp[a] * inv
		}
	}
	return axis, centroid
}
