// Package dist implements the distribution functions and data access
// descriptors (DADs) of the CHAOS/PARTI runtime (Ponnusamy, Saltz &
// Choudhary, SC'93).
//
// A distribution maps a global index space [0, n) onto p processors:
// every global index g has an owning rank and a local index on that
// rank. The paper's runtime uses two families: BLOCK, the Fortran D
// decomposition with a closed form (BlockDist) that resolves without
// communication, and IRREGULAR, an explicit owner map — the runtime
// form of the map array produced by the paper's SET distfmt BY
// PARTITIONING ... USING ... directive (Phase A) and the thing Phase
// C's REDISTRIBUTE installs. An irregular map has no closed form; the
// runtime holds it in the distributed translation table (package
// ttable), never replicated on every rank.
//
// The DAD is the descriptor the paper's schedule-reuse check (Section
// 3) keys on: remapping an array mints a fresh DAD, so descriptor
// equality certifies that an array's placement is unchanged since an
// inspector (Phase D) recorded it, letting the executor (Phase E) skip
// re-inspection. DADAllocator mints descriptors with unique IDs; every
// rank of the SPMD runtime allocates in identical program order, so IDs
// agree across ranks without communication.
package dist

import "fmt"

// Kind identifies a distribution family for DAD bookkeeping and for
// dispatching between closed-form and table-based index translation.
type Kind int

const (
	// Block is the Fortran D BLOCK decomposition: contiguous,
	// nearly equal chunks in rank order.
	Block Kind = iota
	// Irregular is an explicit owner map computed at runtime by a
	// partitioner; it has no closed form and irregular arrays are
	// translated through the distributed translation table.
	Irregular
)

// String returns the Fortran D spelling of the distribution kind.
func (k Kind) String() string {
	switch k {
	case Block:
		return "BLOCK"
	case Irregular:
		return "IRREGULAR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// checkSpace validates the extent and processor count of NewBlock.
func checkSpace(n, p int) {
	if n < 0 {
		panic(fmt.Sprintf("dist: BLOCK size %d negative", n))
	}
	if p <= 0 {
		panic(fmt.Sprintf("dist: BLOCK over %d processors", p))
	}
}

// checkGlobal validates a global index against the extent n.
func checkGlobal(g, n int) {
	if g < 0 || g >= n {
		panic(fmt.Sprintf("dist: BLOCK global index %d out of range [0,%d)", g, n))
	}
}

// checkRank validates a rank against the processor count p.
func checkRank(rank, p int) {
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("dist: BLOCK rank %d out of range [0,%d)", rank, p))
	}
}
