package dist_test

import (
	"math/rand"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/ttable"
)

// TestIrregularAgreesWithTranslationTable checks the cross-layer
// numbering contract: building the distributed translation table from
// per-rank global lists and gathering it back (Replicated) must yield
// exactly the IrregularDist built directly from the owner map — same
// owners, same ascending-global-order locals.
func TestIrregularAgreesWithTranslationTable(t *testing.T) {
	const n, p = 120, 4
	rng := rand.New(rand.NewSource(93))
	owner := make([]int, n)
	for g := range owner {
		owner[g] = rng.Intn(p)
	}
	ref := dist.NewIrregular(owner, p)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		var mine []int
		for g, o := range owner {
			if o == c.Rank() {
				mine = append(mine, g)
			}
		}
		tab := ttable.Build(c, n, mine)
		rep := tab.Replicated(c)
		for g := 0; g < n; g++ {
			if rep.Owner(g) != ref.Owner(g) || rep.Local(g) != ref.Local(g) {
				t.Errorf("g=%d: table (%d,%d), IrregularDist (%d,%d)",
					g, rep.Owner(g), rep.Local(g), ref.Owner(g), ref.Local(g))
			}
		}
		// The table's own resolution must agree too.
		qs := make([]int, n)
		for i := range qs {
			qs[i] = i
		}
		owners, locals := tab.Resolve(c, qs)
		for g := 0; g < n; g++ {
			if owners[g] != ref.Owner(g) || locals[g] != ref.Local(g) {
				t.Errorf("resolve g=%d: (%d,%d), want (%d,%d)",
					g, owners[g], locals[g], ref.Owner(g), ref.Local(g))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegularResolverOverEveryKind runs every distribution kind through
// the ttable.Regular adapter, which is how loops over regularly
// distributed arrays resolve ownership without communication.
func TestRegularResolverOverEveryKind(t *testing.T) {
	const n, p = 31, 3
	owner := make([]int, n)
	for g := range owner {
		owner[g] = g * g % p
	}
	dists := []dist.Dist{
		dist.NewBlock(n, p),
		dist.NewIrregular(owner, p),
	}
	for _, d := range dists {
		d := d
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			r := ttable.Regular{D: d}
			if r.Size() != n || r.Kind() != d.Kind() {
				t.Errorf("%v: Regular metadata wrong", d.Kind())
			}
			qs := []int{0, n - 1, n / 2, n / 2}
			owners, locals := r.Resolve(c, qs)
			for i, g := range qs {
				if owners[i] != d.Owner(g) || locals[i] != d.Local(g) {
					t.Errorf("%v: resolve(%d) = (%d,%d), want (%d,%d)",
						d.Kind(), g, owners[i], locals[i], d.Owner(g), d.Local(g))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
