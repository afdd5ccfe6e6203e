package dist

// BlockDist is the Fortran D BLOCK decomposition of [0, n) over p
// ranks: rank r owns the contiguous chunk [Lo(r), Hi(r)). The n%p
// remainder elements are spread one apiece over the first n%p ranks, so
// chunk sizes differ by at most one and low ranks are never more than
// one element heavier. It is a small comparable value type; copy it
// freely.
type BlockDist struct {
	n, p int
	// q = n/p and r = n%p, divided once: ranks below r own q+1 elements,
	// the rest q. split = r*(q+1) is the first global index of the
	// size-q region.
	q, r, split int
}

// NewBlock returns the BLOCK distribution of an index space of size n
// over p ranks. It panics if n is negative or p is not positive.
func NewBlock(n, p int) BlockDist {
	checkSpace(n, p)
	q, r := n/p, n%p
	return BlockDist{n: n, p: p, q: q, r: r, split: r * (q + 1)}
}

// Lo returns the first global index owned by rank (inclusive).
func (b BlockDist) Lo(rank int) int {
	checkRank(rank, b.p)
	if rank < b.r {
		return rank * (b.q + 1)
	}
	return rank*b.q + b.r
}

// Hi returns one past the last global index owned by rank, so the
// rank's chunk is exactly [Lo(rank), Hi(rank)).
func (b BlockDist) Hi(rank int) int {
	return b.Lo(rank) + b.LocalSize(rank)
}

// Owner returns the rank owning global index g.
func (b BlockDist) Owner(g int) int {
	checkGlobal(g, b.n)
	if g < b.split {
		return g / (b.q + 1)
	}
	return b.r + (g-b.split)/b.q
}

// Local returns the offset of g within its owner's chunk.
func (b BlockDist) Local(g int) int {
	return g - b.Lo(b.Owner(g))
}

// Size returns the extent of the index space.
func (b BlockDist) Size() int { return b.n }

// LocalSize returns the chunk size of rank.
func (b BlockDist) LocalSize(rank int) int {
	checkRank(rank, b.p)
	if rank < b.r {
		return b.q + 1
	}
	return b.q
}
