package scratch

import (
	"iter"
	"math/bits"
)

// IndexSet is the runtime's one distinct-index numbering: a set of
// indices in [0, n] that numbers its members in ascending order, with
// no hash table and no sort. The dereference, the schedule build, the
// ghost-exchange pattern, partition projection and the redistribution
// plan all take a list's distinct indices and their ranks from it.
// Mark the members, Number them once, and then Rank is two reads and a
// popcount. The zero value is ready; storage, n/4 bytes in one array,
// grows to the largest n seen and is reused by every later Reset.
type IndexSet struct {
	// w's first half has one bit per index; after Number, w[len(w)/2+i]
	// counts the members in its words [0, i).
	w []uint64
}

// Reset empties s and sizes it for the indices [0, n].
func (s *IndexSet) Reset(n int) {
	m := n>>6 + 1
	clear(Grow(&s.w, 2*m)[:m])
}

// Mark adds g, which must lie in [0, n], to the set and reports whether
// it was a member already. A Mark after Number leaves the numbering
// stale until the next Number.
func (s *IndexSet) Mark(g int) bool {
	w, bit := g>>6, uint64(1)<<(g&63)
	had := s.w[w]&bit != 0
	s.w[w] |= bit
	return had
}

// Number counts the members below every word of the bitmap and returns
// how many there are.
func (s *IndexSet) Number() int {
	marks, dir := s.w[:len(s.w)/2], s.w[len(s.w)/2:]
	n := 0
	for w, word := range marks {
		dir[w] = uint64(n)
		n += bits.OnesCount64(word)
	}
	return n
}

// Rank returns the number of members below g, for any g in [0, n]:
// the position of a member in ascending order. It reads the counts of
// the last Number.
func (s *IndexSet) Rank(g int) int {
	w := g >> 6
	return int(s.w[len(s.w)/2+w]) + bits.OnesCount64(s.w[w]&(1<<(g&63)-1))
}

// All yields the members in ascending order, the i-th being the one of
// rank i.
func (s *IndexSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, word := range s.w[:len(s.w)/2] {
			for ; word != 0; word &= word - 1 {
				if !yield(w<<6 | bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
}
