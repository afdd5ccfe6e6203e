// Package dist implements the distribution functions and data access
// descriptors (DADs) of the CHAOS/PARTI runtime (Ponnusamy, Saltz &
// Choudhary, SC'93).
//
// A distribution maps a global index space [0, n) onto p processors:
// every global index g has an owning rank Owner(g) and a local index
// Local(g) on that rank, and the pair is invertible via Global. The
// paper's runtime uses two families: BLOCK, the Fortran D decomposition
// with a closed form that resolves without communication, and
// IRREGULAR, an explicit owner map — the runtime form of the map array
// produced by the paper's SET distfmt BY PARTITIONING ... USING ...
// directive (Phase A) and the thing Phase C's REDISTRIBUTE installs.
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

// Dist is a closed-form description of how a one-dimensional index
// space [0, Size()) is laid out across ranks 0..p-1. Implementations
// answer ownership queries locally, with no communication; the
// distributed translation table (package ttable) provides the same
// answers for irregular distributions too large to replicate.
type Dist interface {
	// Owner returns the rank that owns global index g.
	Owner(g int) int
	// Local returns the local index of global index g on Owner(g).
	Local(g int) int
	// Global is the inverse of (Owner, Local): the global index of
	// local index l on the given rank.
	Global(rank, l int) int
	// Size returns the extent of the distributed index space.
	Size() int
	// LocalSize returns the number of elements owned by rank.
	LocalSize(rank int) int
	// Kind returns the distribution family.
	Kind() Kind
}

// checkSpace validates a global extent and processor count shared by
// every distribution constructor.
func checkSpace(name string, n, p int) {
	if n < 0 {
		panic(fmt.Sprintf("dist: %s size %d negative", name, n))
	}
	if p <= 0 {
		panic(fmt.Sprintf("dist: %s over %d processors", name, p))
	}
}

// checkGlobal validates a global index against the extent n.
func checkGlobal(name string, g, n int) {
	if g < 0 || g >= n {
		panic(fmt.Sprintf("dist: %s global index %d out of range [0,%d)", name, g, n))
	}
}

// checkLocal validates a local index against a rank's local size.
func checkLocal(name string, l, size int) {
	if l < 0 || l >= size {
		panic(fmt.Sprintf("dist: %s local index %d out of range [0,%d)", name, l, size))
	}
}

// checkRank validates a rank against the processor count p.
func checkRank(name string, rank, p int) {
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("dist: %s rank %d out of range [0,%d)", name, rank, p))
	}
}
