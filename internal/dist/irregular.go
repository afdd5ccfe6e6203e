package dist

import "fmt"

// IrregularDist is a fully replicated irregular distribution: an
// explicit owner map, as produced by a graph or coordinate partitioner
// (paper Phase A) and installed by REDISTRIBUTE (Phase C). Local
// indices are assigned in ascending global order within each rank —
// the same numbering the remap plan (remap.Build) and the distributed
// translation table (ttable.Build's replicated form) produce, so the
// three layers agree on where every element lands.
//
// The replicated form costs O(n) memory per rank; the paper's runtime
// holds large irregular distributions in the distributed translation
// table instead (package ttable) and uses this type for references,
// tests and small runs.
type IrregularDist struct {
	owner []int   // owner[g] = owning rank of global g
	local []int   // local[g] = local index of g on owner[g]
	mine  [][]int // mine[r] = globals owned by rank r, ascending
	p     int
}

// NewIrregular builds the irregular distribution described by the
// owner map (owner[g] = owning rank of global index g) over p ranks.
// The map is copied. It panics if p is not positive or any owner is
// out of range.
func NewIrregular(owner []int, p int) *IrregularDist {
	checkSpace("IRREGULAR", len(owner), p)
	d := &IrregularDist{
		owner: append([]int(nil), owner...),
		local: make([]int, len(owner)),
		mine:  make([][]int, p),
		p:     p,
	}
	for g, o := range d.owner {
		if o < 0 || o >= p {
			panic(fmt.Sprintf("dist: IRREGULAR owner[%d] = %d out of range [0,%d)", g, o, p))
		}
		d.local[g] = len(d.mine[o])
		d.mine[o] = append(d.mine[o], g)
	}
	return d
}

// Owner returns the rank owning global index g.
func (d *IrregularDist) Owner(g int) int {
	checkGlobal("IRREGULAR", g, len(d.owner))
	return d.owner[g]
}

// Local returns the local index of g on its owner: g's position among
// the owner's globals in ascending order.
func (d *IrregularDist) Local(g int) int {
	checkGlobal("IRREGULAR", g, len(d.owner))
	return d.local[g]
}

// Global returns the global index at local offset l on rank.
func (d *IrregularDist) Global(rank, l int) int {
	checkRank("IRREGULAR", rank, d.p)
	checkLocal("IRREGULAR", l, len(d.mine[rank]))
	return d.mine[rank][l]
}

// Size returns the extent of the index space.
func (d *IrregularDist) Size() int { return len(d.owner) }

// LocalSize returns the number of elements owned by rank.
func (d *IrregularDist) LocalSize(rank int) int {
	checkRank("IRREGULAR", rank, d.p)
	return len(d.mine[rank])
}

// Kind returns Irregular.
func (d *IrregularDist) Kind() Kind { return Irregular }

var _ Dist = (*IrregularDist)(nil)
