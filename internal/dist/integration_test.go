package dist_test

import (
	"math/rand"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/ttable"
)

// mine returns the globals owner assigns to rank, ascending: the list
// a rank hands ttable.Build, whose position is the local index.
func mine(owner []int, rank int) []int {
	var out []int
	for g, o := range owner {
		if o == rank {
			out = append(out, g)
		}
	}
	return out
}

// TestIrregularAgreesWithTranslationTable checks the cross-layer
// numbering contract: the distributed translation table built from
// per-rank ascending global lists resolves every g to owner[g] and to
// g's position among its owner's globals in ascending order — the
// numbering remap.Build gives a redistributed array.
func TestIrregularAgreesWithTranslationTable(t *testing.T) {
	const n, p = 120, 4
	rng := rand.New(rand.NewSource(93))
	owner := make([]int, n)
	for g := range owner {
		owner[g] = rng.Intn(p)
	}
	local := make([]int, n)
	count := make([]int, p)
	for g, o := range owner {
		local[g] = count[o]
		count[o]++
	}
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		tab := ttable.Build(c, n, mine(owner, c.Rank()))
		qs := make([]int, n)
		for i := range qs {
			qs[i] = i
		}
		owners, locals := tab.Resolve(c, qs)
		for g := 0; g < n; g++ {
			if owners[g] != owner[g] || locals[g] != local[g] {
				t.Errorf("resolve g=%d: (%d,%d), want (%d,%d)",
					g, owners[g], locals[g], owner[g], local[g])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIrregularAscendingGlobalOrder pins the numbering on a small map
// by hand: local index = position in the rank's ascending list of
// globals.
func TestIrregularAscendingGlobalOrder(t *testing.T) {
	owner := []int{2, 0, 1, 0, 2, 2, 1, 0}
	wantMine := [][]int{{1, 3, 7}, {2, 6}, {0, 4, 5}}
	err := machine.Run(machine.Zero(3), func(c *machine.Ctx) {
		tab := ttable.Build(c, len(owner), mine(owner, c.Rank()))
		for r, globals := range wantMine {
			owners, locals := tab.Resolve(c, globals)
			for l, g := range globals {
				if owners[l] != r || locals[l] != l {
					t.Errorf("g=%d: (%d,%d), want (%d,%d)", g, owners[l], locals[l], r, l)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegularResolverOverEveryKind resolves both distribution kinds
// through the ttable.Resolver interface: BLOCK through the Regular
// adapter, without communication, and IRREGULAR through the
// translation table.
func TestRegularResolverOverEveryKind(t *testing.T) {
	const n, p = 31, 3
	block := dist.NewBlock(n, p)
	owner := make([]int, n)
	for g := range owner {
		owner[g] = g * g % p
	}
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		local := make([]int, n)
		for r := 0; r < p; r++ {
			for l, g := range mine(owner, r) {
				local[g] = l
			}
		}
		cases := []struct {
			res          ttable.Resolver
			kind         dist.Kind
			owner, local func(g int) int
		}{
			{ttable.Regular{D: block}, dist.Block, block.Owner, block.Local},
			{ttable.Build(c, n, mine(owner, c.Rank())), dist.Irregular,
				func(g int) int { return owner[g] }, func(g int) int { return local[g] }},
		}
		for _, tc := range cases {
			qs := []int{0, n - 1, n / 2, n / 2}
			owners, locals := tc.res.ResolveInto(c, new(ttable.Workspace), qs)
			for i, g := range qs {
				if owners[i] != tc.owner(g) || locals[i] != tc.local(g) {
					t.Errorf("%v: resolve(%d) = (%d,%d), want (%d,%d)",
						tc.kind, g, owners[i], locals[i], tc.owner(g), tc.local(g))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
