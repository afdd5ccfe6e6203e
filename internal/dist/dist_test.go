package dist

import (
	"strings"
	"testing"
)

// checkBlock verifies the BLOCK contract: Local is the offset of g in
// its owner's chunk, LocalSize is consistent with ownership, and every
// global is owned exactly once.
func checkBlock(t *testing.T, d BlockDist, p int) {
	t.Helper()
	n := d.Size()
	perRank := make([]int, p)
	for g := 0; g < n; g++ {
		o, l := d.Owner(g), d.Local(g)
		if o < 0 || o >= p {
			t.Fatalf("Owner(%d) = %d out of range [0,%d)", g, o, p)
		}
		if l != perRank[o] {
			t.Fatalf("Local(%d) = %d, want %d on rank %d", g, l, perRank[o], o)
		}
		perRank[o]++
	}
	total := 0
	for r := 0; r < p; r++ {
		if sz := d.LocalSize(r); sz != perRank[r] {
			t.Fatalf("rank %d: LocalSize = %d but owns %d globals", r, sz, perRank[r])
		}
		total += perRank[r]
	}
	if total != n {
		t.Fatalf("LocalSize sums to %d, want %d", total, n)
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
		checkBlock(t, NewBlock(tc.n, tc.p), tc.p)
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
	if b.Size() != 10 {
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
}

func TestQueryValidation(t *testing.T) {
	b := NewBlock(10, 3)
	mustPanic(t, "out of range", func() { b.Owner(10) })
	mustPanic(t, "out of range", func() { b.Owner(-1) })
	mustPanic(t, "rank", func() { b.Lo(3) })
	mustPanic(t, "rank", func() { b.LocalSize(-1) })
	mustPanic(t, "out of range", func() { b.Local(10) })
}
