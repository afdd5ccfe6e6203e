package scratch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzIndexSet checks one IndexSet, recycled through a run of Resets
// that grow and shrink it, against slices.Sort + slices.Compact +
// sort.SearchInts. Each byte of sizes is one round: it picks the
// round's bound n and, with the seed, how the round's indices are
// drawn — none, one index many times, the ends 0, n-1 and n only, every
// index once, or heavy repeats among a few fresh draws. Every round
// demands that Mark report exactly the repeats, that Number count and
// All walk exactly the sorted distinct indices (a mark left over from
// a larger earlier round would show in both), and that Rank agree with
// the binary search at every index of [0, n].
func FuzzIndexSet(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 200, 3, 255, 64, 0})
	f.Add(int64(2), []byte{255, 9, 255, 1, 128})
	f.Add(int64(3), []byte{63, 64, 65, 127, 128, 2})
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte) {
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		rng := rand.New(rand.NewSource(seed))
		var s IndexSet
		for round, b := range sizes {
			n := int(b) * (1 + int(b)%7)
			gs := draw(rng, n)
			s.Reset(n)
			seen := make([]bool, n+1)
			for i, g := range gs {
				if had := s.Mark(g); had != seen[g] {
					t.Fatalf("round %d (n=%d): Mark(%d) = %v at %d, want %v", round, n, g, had, i, seen[g])
				}
				seen[g] = true
			}
			want := slices.Compact(slices.Sorted(slices.Values(gs)))
			if got := s.Number(); got != len(want) {
				t.Fatalf("round %d (n=%d): Number = %d, want %d", round, n, got, len(want))
			}
			if got := slices.Collect(s.All()); !slices.Equal(got, want) {
				t.Fatalf("round %d (n=%d): All = %v, want %v", round, n, got, want)
			}
			for g := 0; g <= n; g++ {
				if got, want := s.Rank(g), sort.SearchInts(want, g); got != want {
					t.Fatalf("round %d (n=%d): Rank(%d) = %d, want %d", round, n, g, got, want)
				}
			}
			for g := range s.All() {
				if g != want[0] {
					t.Fatalf("round %d (n=%d): All stopped early at %d, want %d", round, n, g, want[0])
				}
				break
			}
		}
	})
}

// draw returns one round's indices in [0, n].
func draw(rng *rand.Rand, n int) []int {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1: // one index, many times
		g := []int{0, n - 1, n}[rng.Intn(3)]
		gs := make([]int, 1+rng.Intn(3*n+1))
		for i := range gs {
			gs[i] = max(g, 0)
		}
		return gs
	case 2: // only the ends
		gs := make([]int, 1+rng.Intn(8))
		for i := range gs {
			gs[i] = max([]int{0, n - 1, n}[rng.Intn(3)], 0)
		}
		return gs
	case 3: // every index once, in random order
		return rng.Perm(n + 1)
	default: // heavy repeats among a few fresh draws
		gs := make([]int, rng.Intn(4*n+1))
		for i := range gs {
			if i > 0 && rng.Intn(4) != 0 {
				gs[i] = gs[rng.Intn(i)]
			} else {
				gs[i] = rng.Intn(n + 1)
			}
		}
		return gs
	}
}
