package ttable

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
)

// irregularOwner deals global indices to ranks at random, so that
// ownership differs from BLOCK.
func irregularOwner(n, p int) []int {
	owner := make([]int, n)
	rng := rand.New(rand.NewSource(42))
	for g := range owner {
		owner[g] = rng.Intn(p)
	}
	return owner
}

func myGlobals(owner []int, rank int) []int {
	var out []int
	for g, o := range owner {
		if o == rank {
			out = append(out, g)
		}
	}
	return out
}

// localsOf returns each global's local index under owner: its position
// among its owner's globals in ascending order.
func localsOf(owner []int) []int {
	local := make([]int, len(owner))
	count := map[int]int{}
	for g, o := range owner {
		local[g] = count[o]
		count[o]++
	}
	return local
}

func TestBuildAndResolve(t *testing.T) {
	const n, p = 100, 4
	owner := irregularOwner(n, p)
	local := localsOf(owner)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		tab := Build(c, n, myGlobals(owner, c.Rank()))
		if tab.home.Size() != n {
			t.Error("Size wrong")
		}
		// Every rank queries every global index.
		qs := make([]int, n)
		for i := range qs {
			qs[i] = i
		}
		owners, locals := tab.Resolve(c, qs)
		for g := 0; g < n; g++ {
			if owners[g] != owner[g] {
				t.Errorf("rank %d: owner(%d) = %d, want %d", c.Rank(), g, owners[g], owner[g])
			}
			if locals[g] != local[g] {
				t.Errorf("rank %d: local(%d) = %d, want %d", c.Rank(), g, locals[g], local[g])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResolveDuplicatesAndSubsets(t *testing.T) {
	const n, p = 50, 3
	owner := irregularOwner(n, p)
	local := localsOf(owner)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		tab := Build(c, n, myGlobals(owner, c.Rank()))
		qs := []int{7, 7, 3, 49, 0, 7, 3}
		owners, locals := tab.Resolve(c, qs)
		for i, g := range qs {
			if owners[i] != owner[g] || locals[i] != local[g] {
				t.Errorf("query %d (g=%d): got (%d,%d) want (%d,%d)",
					i, g, owners[i], locals[i], owner[g], local[g])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResolveEmptyQuery(t *testing.T) {
	const n, p = 20, 4
	owner := irregularOwner(n, p)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		tab := Build(c, n, myGlobals(owner, c.Rank()))
		owners, locals := tab.Resolve(c, nil)
		if len(owners) != 0 || len(locals) != 0 {
			t.Error("empty query returned results")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildDetectsMissingIndex(t *testing.T) {
	const n, p = 10, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		// Nobody claims index 9.
		var mine []int
		for g := c.Rank(); g < n-1; g += p {
			mine = append(mine, g)
		}
		Build(c, n, mine)
	})
	if err == nil || !strings.Contains(err.Error(), "owned by no rank") {
		t.Fatalf("err = %v, want missing-index panic", err)
	}
}

func TestBuildDetectsDuplicateOwnership(t *testing.T) {
	const n, p = 10, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		// Both ranks claim index 0.
		mine := []int{0}
		for g := c.Rank() + 1; g < n; g += p {
			mine = append(mine, g)
		}
		_ = mine
		Build(c, n, mine)
	})
	if err == nil || !strings.Contains(err.Error(), "multiple ranks") {
		t.Fatalf("err = %v, want duplicate-ownership panic", err)
	}
}

func TestRegularResolver(t *testing.T) {
	const n, p = 25, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		d := dist.NewBlock(n, p)
		r := Regular{D: d}
		if r.D.Size() != n {
			t.Error("Regular metadata wrong")
		}
		qs := []int{0, 24, 13, 13}
		owners, locals := r.ResolveInto(c, new(Workspace), qs)
		for i, g := range qs {
			if owners[i] != d.Owner(g) || locals[i] != d.Local(g) {
				t.Errorf("Regular resolve mismatch at %d", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResolveChargesClock(t *testing.T) {
	const n, p = 64, 4
	owner := irregularOwner(n, p)
	st, err := machine.RunStats(context.Background(), machine.IPSC860(p), func(c *machine.Ctx) {
		tab := Build(c, n, myGlobals(owner, c.Rank()))
		qs := make([]int, n)
		for i := range qs {
			qs[i] = i
		}
		tab.Resolve(c, qs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxClock <= 0 {
		t.Fatal("translation table build+resolve charged no virtual time")
	}
}
