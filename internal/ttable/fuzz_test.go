package ttable

import (
	"math/rand"
	"slices"
	"testing"

	"chaos/internal/machine"
)

// fuzzQueries draws one rank's query list for one round in the given
// mode, skewed toward the shapes that stress duplicate removal: every
// query the same index, every query distinct, none at all, only the
// ends of the index space, and repeats mixed with fresh draws.
func fuzzQueries(rng *rand.Rand, n int, mode int) []int {
	if n == 0 {
		return nil
	}
	switch mode % 6 {
	case 0:
		return nil
	case 1: // one index, many times
		g := []int{0, n - 1, rng.Intn(n)}[rng.Intn(3)]
		qs := make([]int, 1+rng.Intn(3*n))
		for i := range qs {
			qs[i] = g
		}
		return qs
	case 2: // all distinct, in random order
		return rng.Perm(n)[:rng.Intn(n+1)]
	case 3: // only the two ends
		qs := make([]int, 1+rng.Intn(8))
		for i := range qs {
			qs[i] = (n - 1) * rng.Intn(2)
		}
		return qs
	case 4: // every index once, descending
		qs := make([]int, n)
		for i := range qs {
			qs[i] = n - 1 - i
		}
		return qs
	default: // heavy repeats among a few fresh draws
		qs := make([]int, rng.Intn(4*n))
		for i := range qs {
			if i > 0 && rng.Intn(4) != 0 {
				qs[i] = qs[rng.Intn(i)]
			} else {
				qs[i] = rng.Intn(n)
			}
		}
		return qs
	}
}

// FuzzResolve drives ResolveInto (one recycled Workspace per rank) and
// referenceResolve through the same fuzzed index spaces, owner
// assignments and query lists. Every answer must be the owner map's,
// and every rank's virtual clock must equal the reference's after
// every call: duplicate removal is a host saving the clock does not
// see.
func FuzzResolve(f *testing.F) {
	f.Add(uint16(97), uint8(3), int64(1), uint32(0x12345))
	f.Add(uint16(1), uint8(7), int64(2), uint32(0x11111111)) // n=1: one index, every rank
	f.Add(uint16(5), uint8(7), int64(3), uint32(0x55555555)) // fewer indices than ranks
	f.Add(uint16(64), uint8(1), int64(4), uint32(0x22222222))
	f.Add(uint16(129), uint8(7), int64(5), uint32(0x33333333))
	f.Add(uint16(0), uint8(3), int64(6), uint32(0))
	f.Fuzz(func(t *testing.T, nb uint16, pb uint8, seed int64, modes uint32) {
		const rounds = 3
		n := int(nb) % 300
		p := 1 + int(pb)%8
		rng := rand.New(rand.NewSource(seed))
		owner := make([]int, n)
		switch seed & 3 {
		case 0: // random
			for g := range owner {
				owner[g] = rng.Intn(p)
			}
		case 1: // all on one rank
			r := rng.Intn(p)
			for g := range owner {
				owner[g] = r
			}
		default: // the reverse of BLOCK
			for g := range owner {
				owner[g] = p - 1 - g*p/max(n, 1)
			}
		}
		local := localsOf(owner)
		// Every rank's query lists, drawn up front so both runs see them.
		lists := make([][][]int, p)
		for r := range lists {
			for round := 0; round < rounds; round++ {
				mode := int(modes>>((3*r+round)%30)) & 7
				lists[r] = append(lists[r], fuzzQueries(rng, n, mode))
			}
		}
		run := func(reference bool) [][]float64 {
			clocks := make([][]float64, p)
			err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
				tab := Build(c, n, myGlobals(owner, c.Rank()))
				var ws Workspace
				for _, qs := range lists[c.Rank()] {
					var o, l []int
					if reference {
						o, l = referenceResolve(tab, c, qs)
					} else {
						o, l = tab.ResolveInto(c, &ws, qs)
					}
					for i, g := range qs {
						if o[i] != owner[g] || l[i] != local[g] {
							t.Errorf("rank %d: query %d (index %d) answered (%d,%d), want (%d,%d)",
								c.Rank(), i, g, o[i], l[i], owner[g], local[g])
							break
						}
					}
					clocks[c.Rank()] = append(clocks[c.Rank()], c.Clock())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return clocks
		}
		want, got := run(true), run(false)
		for r := range want {
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("n=%d P=%d rank %d: clocks %v, reference %v", n, p, r, got[r], want[r])
			}
		}
	})
}
