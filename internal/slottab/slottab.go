// Package slottab is the flat hash table the runtime's assembly code
// deduplicates global indices with: the inspector's schedule builds
// (internal/schedule) and the ghost-exchange pattern of a GeoCoL graph
// (internal/geocol) both map "global index seen before?" to a small
// int without a Go map, without per-key allocation, and with storage
// that a caller-owned workspace recycles from one build to the next.
package slottab

// Table is an open-addressing (linear probing) map from a non-negative
// global index to an int, sized for at most half load. The zero value
// is ready once Reset has been called.
type Table struct {
	e     []Entry
	shift uint
}

// Entry holds Key1 = key+1, so the zero Entry means empty.
type Entry struct{ Key1, Val int }

// Reset empties the table and sizes it for n keys. The storage is
// reused when it is large enough.
func (t *Table) Reset(n int) {
	bits := uint(4)
	for 1<<bits < 2*n {
		bits++
	}
	if cap(t.e) < 1<<bits {
		t.e = make([]Entry, 1<<bits)
	}
	t.e = t.e[:1<<bits]
	clear(t.e)
	t.shift = 64 - bits
}

// Entry returns the entry of key g, which is empty (Key1 == 0) when g
// is absent; the caller fills it in to insert.
func (t *Table) Entry(g int) *Entry {
	mask := len(t.e) - 1
	for h := int(uint64(g) * 0x9E3779B97F4A7C15 >> t.shift); ; h = (h + 1) & mask {
		if e := &t.e[h]; e.Key1 == 0 || e.Key1 == g+1 {
			return e
		}
	}
}
