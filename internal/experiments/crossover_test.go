package experiments

import (
	"strings"
	"testing"

	"chaos/internal/partition"
)

func TestAmortizationDecomposition(t *testing.T) {
	a, err := MeasureAmortization(4, small(), partition.Spec{Method: partition.MethodRCB}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fixed <= 0 || a.PerIter <= 0 {
		t.Fatalf("degenerate amortization %+v", a)
	}
	if got := a.Cost(10); got <= a.Fixed {
		t.Errorf("Cost(10) = %v not above fixed %v", got, a.Fixed)
	}
}

func TestCrossoverArithmetic(t *testing.T) {
	cheapSetup := Amortization{Partitioner: "A", Fixed: 1, PerIter: 2}
	richSetup := Amortization{Partitioner: "B", Fixed: 101, PerIter: 1}
	if x := Crossover(cheapSetup, richSetup); x != 100 {
		t.Errorf("crossover = %d, want 100", x)
	}
	never := Amortization{Partitioner: "C", Fixed: 0.5, PerIter: 2}
	if x := Crossover(cheapSetup, never); x != -1 {
		t.Errorf("equal per-iter crossover = %d, want -1", x)
	}
	alreadyBetter := Amortization{Partitioner: "D", Fixed: 0.5, PerIter: 1}
	if x := Crossover(cheapSetup, alreadyBetter); x != 0 {
		t.Errorf("dominating crossover = %d, want 0", x)
	}
}

func TestCrossoverBlockVsRCB(t *testing.T) {
	// RCB's executor is cheaper than BLOCK's, so RCB must overtake
	// BLOCK within a modest iteration count.
	blk, err := MeasureAmortization(8, small(), partition.Spec{Method: partition.MethodBlock}, 10)
	if err != nil {
		t.Fatal(err)
	}
	rcb, err := MeasureAmortization(8, small(), partition.Spec{Method: partition.MethodRCB}, 10)
	if err != nil {
		t.Fatal(err)
	}
	x := Crossover(blk, rcb)
	if x < 0 || x > 200 {
		t.Errorf("RCB should overtake BLOCK quickly, crossover = %d", x)
	}
}

func TestCrossoverReportFormat(t *testing.T) {
	rep, err := CrossoverReport(4, small(), []partition.Spec{partition.Spec{Method: partition.MethodBlock}, partition.Spec{Method: partition.MethodRCB}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fixed", "sec/iter", "BLOCK", "RCB", "@100"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
