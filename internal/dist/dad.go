package dist

import "fmt"

// DAD is a data access descriptor: the runtime identity of one
// placement of one distributed array. The descriptor records the
// distribution kind and extent, plus a unique ID minted at every
// (re)distribution, so descriptor equality certifies "same array
// layout, unchanged since this descriptor was issued" — conditions 1
// and 2 of the paper's schedule-reuse check compare exactly these
// values. DAD is a small comparable value type; the registry indexes
// its lastmod map by ID.
type DAD struct {
	// ID is unique per allocator; a remap mints a fresh ID even when
	// kind and extent are unchanged.
	ID uint64
	// Kind is the distribution family of this placement.
	Kind Kind
	// N is the global extent of the described array.
	N int
}

// Equal reports whether two descriptors denote the same placement. IDs
// are unique per allocator, so within one session ID equality implies
// full equality; comparing every field keeps Equal meaningful across
// descriptors that did not come from the same allocator.
func (d DAD) Equal(o DAD) bool { return d == o }

// String renders the descriptor for diagnostics.
func (d DAD) String() string {
	return fmt.Sprintf("DAD#%d(%s,%d)", d.ID, d.Kind, d.N)
}

// DADAllocator mints data access descriptors with session-unique IDs.
// In the SPMD runtime every rank owns a replica and allocates in
// identical program order, so the IDs agree on all ranks without
// communication. The zero allocator is not ready to use; call
// NewDADAllocator.
type DADAllocator struct {
	next uint64
}

// NewDADAllocator returns an allocator whose first descriptor gets
// ID 1 (the zero DAD is never minted, so it can serve as a sentinel).
func NewDADAllocator() *DADAllocator {
	return &DADAllocator{}
}

// New mints a descriptor for an array of extent n distributed with
// kind k.
func (a *DADAllocator) New(k Kind, n int) DAD {
	a.next++
	return DAD{ID: a.next, Kind: k, N: n}
}
