package dist

import (
	"math/rand"
	"strings"
	"testing"
)

// checkDist verifies the closed-form contract every Dist must satisfy:
// Owner/Local/Global round-trip both ways, LocalSize consistent with
// ownership, and every global owned exactly once.
func checkDist(t *testing.T, d Dist, p int) {
	t.Helper()
	n := d.Size()
	seen := make([]bool, n)
	perRank := make([]int, p)
	for g := 0; g < n; g++ {
		o, l := d.Owner(g), d.Local(g)
		if o < 0 || o >= p {
			t.Fatalf("Owner(%d) = %d out of range [0,%d)", g, o, p)
		}
		if l < 0 || l >= d.LocalSize(o) {
			t.Fatalf("Local(%d) = %d out of range [0,%d) on rank %d", g, l, d.LocalSize(o), o)
		}
		if back := d.Global(o, l); back != g {
			t.Fatalf("Global(%d,%d) = %d, want %d", o, l, back, g)
		}
		seen[g] = true
		perRank[o]++
	}
	total := 0
	for r := 0; r < p; r++ {
		sz := d.LocalSize(r)
		if sz != perRank[r] {
			t.Fatalf("rank %d: LocalSize = %d but owns %d globals", r, sz, perRank[r])
		}
		total += sz
		// Global must enumerate the rank's elements, each mapping back.
		for l := 0; l < sz; l++ {
			g := d.Global(r, l)
			if d.Owner(g) != r || d.Local(g) != l {
				t.Fatalf("rank %d local %d: Global=%d maps back to (%d,%d)",
					r, l, g, d.Owner(g), d.Local(g))
			}
		}
	}
	if total != n {
		t.Fatalf("LocalSize sums to %d, want %d", total, n)
	}
	for g, ok := range seen {
		if !ok {
			t.Fatalf("global %d never owned", g)
		}
	}
}

// spaceGrid is the (n, p) matrix the property tests sweep: empty
// spaces, fewer elements than ranks, exact multiples and remainders.
var spaceGrid = []struct{ n, p int }{
	{0, 1}, {0, 4}, {1, 1}, {1, 5}, {3, 7}, {7, 3},
	{8, 4}, {10, 4}, {13, 4}, {100, 7}, {64, 64}, {65, 64},
}

func TestBlockContract(t *testing.T) {
	for _, tc := range spaceGrid {
		checkDist(t, NewBlock(tc.n, tc.p), tc.p)
	}
}

func TestIrregularContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range spaceGrid {
		owner := make([]int, tc.n)
		for g := range owner {
			owner[g] = rng.Intn(tc.p)
		}
		checkDist(t, NewIrregular(owner, tc.p), tc.p)
	}
}

func TestBlockLoHiPartition(t *testing.T) {
	for _, tc := range spaceGrid {
		b := NewBlock(tc.n, tc.p)
		// Chunks must tile [0, n) exactly, in rank order.
		next := 0
		for r := 0; r < tc.p; r++ {
			lo, hi := b.Lo(r), b.Hi(r)
			if lo != next {
				t.Fatalf("n=%d p=%d rank %d: Lo = %d, want %d", tc.n, tc.p, r, lo, next)
			}
			if hi-lo != b.LocalSize(r) {
				t.Fatalf("n=%d p=%d rank %d: Hi-Lo = %d, LocalSize = %d",
					tc.n, tc.p, r, hi-lo, b.LocalSize(r))
			}
			for g := lo; g < hi; g++ {
				if b.Owner(g) != r {
					t.Fatalf("n=%d p=%d: Owner(%d) = %d, want %d", tc.n, tc.p, g, b.Owner(g), r)
				}
			}
			next = hi
		}
		if next != tc.n {
			t.Fatalf("n=%d p=%d: chunks end at %d", tc.n, tc.p, next)
		}
	}
}

func TestBlockRemainderSpreading(t *testing.T) {
	// 10 over 4: sizes 3,3,2,2 — remainder elements go to low ranks
	// and sizes differ by at most one.
	b := NewBlock(10, 4)
	want := []int{3, 3, 2, 2}
	for r, w := range want {
		if b.LocalSize(r) != w {
			t.Errorf("LocalSize(%d) = %d, want %d", r, b.LocalSize(r), w)
		}
	}
	if b.Lo(0) != 0 || b.Hi(0) != 3 || b.Lo(2) != 6 || b.Hi(3) != 10 {
		t.Errorf("bounds: [%d,%d) [%d,%d) [%d,%d) [%d,%d)",
			b.Lo(0), b.Hi(0), b.Lo(1), b.Hi(1), b.Lo(2), b.Hi(2), b.Lo(3), b.Hi(3))
	}
	if b.Procs() != 4 || b.Size() != 10 {
		t.Error("Procs/Size wrong")
	}
}

func TestIrregularAscendingGlobalOrder(t *testing.T) {
	// remap.Build and ttable's replicated form assume local index =
	// position in the rank's ascending list of globals.
	owner := []int{2, 0, 1, 0, 2, 2, 1, 0}
	d := NewIrregular(owner, 3)
	wantMine := [][]int{{1, 3, 7}, {2, 6}, {0, 4, 5}}
	for r, mine := range wantMine {
		if d.LocalSize(r) != len(mine) {
			t.Fatalf("rank %d owns %d globals, want %v", r, d.LocalSize(r), mine)
		}
		for l, g := range mine {
			if d.Global(r, l) != g || d.Local(g) != l || d.Owner(g) != r {
				t.Errorf("rank %d local %d: got global %d, Local(%d)=%d, Owner=%d",
					r, l, d.Global(r, l), g, d.Local(g), d.Owner(g))
			}
		}
		if d.LocalSize(r) != len(mine) {
			t.Errorf("LocalSize(%d) = %d", r, d.LocalSize(r))
		}
	}
	if d.Size() != len(owner) {
		t.Error("Size wrong")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Block:     "BLOCK",
		Irregular: "IRREGULAR",
		Kind(99):  "Kind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestKindsReportedByDists(t *testing.T) {
	if NewBlock(4, 2).Kind() != Block ||
		NewIrregular([]int{0, 1}, 2).Kind() != Irregular {
		t.Error("Kind() mismatch")
	}
}

func TestDADAllocatorMintsUniqueIDs(t *testing.T) {
	a := NewDADAllocator()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		d := a.New(Block, 10)
		if d.ID == 0 {
			t.Fatal("allocator minted the zero ID")
		}
		if seen[d.ID] {
			t.Fatalf("duplicate ID %d", d.ID)
		}
		seen[d.ID] = true
	}
	if a.Minted() != 100 {
		t.Errorf("Minted = %d, want 100", a.Minted())
	}
}

func TestDADAllocatorsAgreeAcrossReplicas(t *testing.T) {
	// The SPMD runtime relies on replicated allocators producing
	// identical descriptors when driven in identical program order.
	a, b := NewDADAllocator(), NewDADAllocator()
	for i := 0; i < 10; i++ {
		da, db := a.New(Irregular, 50+i), b.New(Irregular, 50+i)
		if !da.Equal(db) {
			t.Fatalf("replica divergence at %d: %v vs %v", i, da, db)
		}
	}
}

func TestDADEqual(t *testing.T) {
	a := NewDADAllocator()
	d1 := a.New(Block, 100)
	d2 := a.New(Block, 100)
	if !d1.Equal(d1) {
		t.Error("DAD not equal to itself")
	}
	if d1.Equal(d2) {
		t.Error("fresh mint with same kind/extent must not be Equal (remap invalidation)")
	}
	if d1.Equal(DAD{ID: d1.ID, Kind: Irregular, N: 100}) ||
		d1.Equal(DAD{ID: d1.ID, Kind: Block, N: 99}) {
		t.Error("Equal ignored Kind or N")
	}
}

func TestDADString(t *testing.T) {
	d := DAD{ID: 7, Kind: Irregular, N: 42}
	if got := d.String(); got != "DAD#7(IRREGULAR,42)" {
		t.Errorf("String() = %q", got)
	}
}

// mustPanic asserts f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want substring %q", r, want)
		}
	}()
	f()
}

func TestConstructorValidation(t *testing.T) {
	mustPanic(t, "negative", func() { NewBlock(-1, 2) })
	mustPanic(t, "processors", func() { NewBlock(10, 0) })
	mustPanic(t, "out of range", func() { NewIrregular([]int{0, 3}, 2) })
	mustPanic(t, "out of range", func() { NewIrregular([]int{-1}, 2) })
	mustPanic(t, "processors", func() { NewIrregular(nil, 0) })
}

func TestQueryValidation(t *testing.T) {
	b := NewBlock(10, 3)
	mustPanic(t, "out of range", func() { b.Owner(10) })
	mustPanic(t, "out of range", func() { b.Owner(-1) })
	mustPanic(t, "rank", func() { b.Lo(3) })
	mustPanic(t, "rank", func() { b.LocalSize(-1) })
	mustPanic(t, "out of range", func() { b.Global(0, 4) })

	ir := NewIrregular([]int{0, 1, 0}, 2)
	mustPanic(t, "out of range", func() { ir.Owner(3) })
	mustPanic(t, "out of range", func() { ir.Local(-1) })
	mustPanic(t, "rank", func() { ir.Global(2, 0) })
	mustPanic(t, "out of range", func() { ir.Global(1, 1) })
	mustPanic(t, "rank", func() { ir.LocalSize(2) })
}
