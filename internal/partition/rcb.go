package partition

import (
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
