package md

import (
	"math"
	"testing"

	"chaos/internal/kernel"
)

func TestWater648(t *testing.T) {
	s := Water(216, 4.5, 1)
	if s.NAtom != 648 {
		t.Fatalf("NAtom = %d, want 648", s.NAtom)
	}
	if s.NPair() == 0 {
		t.Fatal("empty pair list")
	}
	// Charges must sum to zero (neutral box) with 216 O and 432 H.
	sum := 0.0
	nO, nH := 0, 0
	for _, q := range s.Q {
		sum += q
		if q < 0 {
			nO++
		} else {
			nH++
		}
	}
	if math.Abs(sum) > 1e-9 || nO != 216 || nH != 432 {
		t.Errorf("charges: sum=%v nO=%d nH=%d", sum, nO, nH)
	}
}

func TestPairsWithinCutoff(t *testing.T) {
	s := Water(27, 4.0, 2)
	for p := 0; p < s.NPair(); p++ {
		i, j := s.P1[p], s.P2[p]
		if i >= j {
			t.Fatalf("pair %d not ordered: (%d,%d)", p, i, j)
		}
		dx := s.X[i] - s.X[j]
		dy := s.Y[i] - s.Y[j]
		dz := s.Z[i] - s.Z[j]
		if r := math.Sqrt(dx*dx + dy*dy + dz*dz); r > 4.0+1e-9 {
			t.Fatalf("pair %d at distance %v beyond cutoff", p, r)
		}
	}
}

func TestPairListComplete(t *testing.T) {
	// Brute-force reference on a small box.
	s := Water(8, 3.5, 3)
	have := map[[2]int]bool{}
	for p := 0; p < s.NPair(); p++ {
		have[[2]int{s.P1[p], s.P2[p]}] = true
	}
	// Reconstruct molecule membership via charge groups is not
	// possible; instead verify no intra-molecular pair exists by
	// distance histogram: intramolecular O-H is ~0.96 Å, H-H ~1.52 Å.
	cut2 := 3.5 * 3.5
	missed := 0
	for i := 0; i < s.NAtom; i++ {
		for j := i + 1; j < s.NAtom; j++ {
			dx := s.X[i] - s.X[j]
			dy := s.Y[i] - s.Y[j]
			dz := s.Z[i] - s.Z[j]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 <= cut2 && !have[[2]int{i, j}] {
				// Must be an intramolecular exclusion: bonded
				// geometry keeps those under 1.6 Å.
				if r2 > 1.6*1.6 {
					missed++
				}
			}
		}
	}
	if missed > 0 {
		t.Errorf("%d in-range intermolecular pairs missing from list", missed)
	}
}

func TestInvR2Positive(t *testing.T) {
	s := Water(27, 4.5, 4)
	for p := 0; p < s.NPair(); p++ {
		v := s.InvR2(p)
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("InvR2(%d) = %v", p, v)
		}
	}
}

func TestForceKernelAntisymmetric(t *testing.T) {
	s := Water(27, 4.5, 5)
	k := s.ForceKernel()
	out := make([]float64, 2)
	charge := func(r int) kernel.Source {
		return kernel.Source{Vals: []float64{-0.8, 0.4}, Ref: []int{r}}
	}
	k.Strip(&kernel.Strip{Iters: []int{0}, Reads: []kernel.Source{charge(0), charge(1)},
		Writes: []kernel.Target{{Buf: out[:1], Ref: []int{0}, Add: true}, {Buf: out[1:], Ref: []int{0}, Add: true}}})
	if out[0] != -out[1] {
		t.Errorf("force contributions not antisymmetric: %v", out)
	}
	if out[0] >= 0 {
		t.Errorf("opposite charges must attract (negative f): %v", out[0])
	}
}

func TestDeterminism(t *testing.T) {
	a := Water(64, 4.5, 7)
	b := Water(64, 4.5, 7)
	if a.NPair() != b.NPair() {
		t.Fatal("pair counts differ")
	}
	for p := range a.P1 {
		if a.P1[p] != b.P1[p] || a.P2[p] != b.P2[p] {
			t.Fatal("pair lists differ")
		}
	}
}

func TestWaterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Water(0, 4.5, 1)
}
