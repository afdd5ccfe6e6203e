package iterpart

import "testing"

func TestAlmostOwnerComputesMajority(t *testing.T) {
	// Rank 2 owns most references.
	if got := Choose([]int{2, 2, 2, 1}, 1, 0, AlmostOwnerComputes); got != 2 {
		t.Errorf("majority = %d, want 2", got)
	}
}

func TestAlmostOwnerComputesTieGoesToLHS(t *testing.T) {
	if got := Choose([]int{3, 1, 3, 1}, 1, 0, AlmostOwnerComputes); got != 1 {
		t.Errorf("tie = %d, want LHS owner 1", got)
	}
}

func TestAlmostOwnerComputesTieWithoutLHSIsLowestLeader(t *testing.T) {
	if got := Choose([]int{4, 2, 4, 2}, 9, 0, AlmostOwnerComputes); got != 2 {
		t.Errorf("tie = %d, want lowest leading rank 2", got)
	}
}

func TestAlmostOwnerComputesEmptyFallsBack(t *testing.T) {
	if got := Choose(nil, 5, 7, AlmostOwnerComputes); got != 7 {
		t.Errorf("empty refs = %d, want block home 7", got)
	}
}

func TestAlmostOwnerComputesSingleRef(t *testing.T) {
	if got := Choose([]int{6}, 6, 0, AlmostOwnerComputes); got != 6 {
		t.Errorf("single ref = %d, want 6", got)
	}
}

func TestChooseDeterministic(t *testing.T) {
	refs := []int{5, 3, 5, 3, 7}
	a := Choose(refs, 9, 0, AlmostOwnerComputes)
	for i := 0; i < 10; i++ {
		if b := Choose(refs, 9, 0, AlmostOwnerComputes); b != a {
			t.Fatalf("nondeterministic choice: %d vs %d", a, b)
		}
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Choose([]int{1}, 1, 0, Policy(42))
}

func TestPolicyString(t *testing.T) {
	if AlmostOwnerComputes.String() != "almost-owner-computes" {
		t.Error("Policy.String mismatch")
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy should format")
	}
}
