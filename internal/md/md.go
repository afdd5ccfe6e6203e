// Package md generates the molecular-dynamics workload standing in for
// the paper's 648-atom water electrostatic force calculation (CHARMM;
// the "648 Atoms" columns of the Section 6 evaluation, Tables 1, 3, 4):
// a box of 3-site water molecules on a jittered lattice, a cutoff-radius
// nonbonded pair list, and an electrostatic force kernel whose loop
// shape is exactly the paper's L2 (a pair list is an edge list; force
// accumulation is a left-hand-side ADD reduction on both endpoints).
package md

import (
	"fmt"
	"math"

	"chaos/internal/kernel"
	"chaos/internal/xrand"
)

// System is one water box.
type System struct {
	// NAtom is the number of atom sites (3 per molecule).
	NAtom int
	// X, Y, Z are site coordinates (Å).
	X, Y, Z []float64
	// Q holds partial charges (O: -0.8, H: +0.4).
	Q []float64
	// P1, P2 form the nonbonded pair list within the cutoff.
	P1, P2 []int
	// Cutoff is the pair-list radius (Å).
	Cutoff float64
}

// NPair returns the number of nonbonded pairs.
func (s *System) NPair() int { return len(s.P1) }

// Water generates a box of nMol water molecules (3*nMol atom sites) on
// a jittered cubic lattice with ~3.1 Å molecular spacing, builds the
// cutoff pair list, and randomly renumbers the atom sites so the
// numbering carries no locality (matching the irregular-access premise
// of the paper's experiments). Deterministic in (nMol, seed).
func Water(nMol int, cutoff float64, seed uint64) *System {
	if nMol < 1 {
		panic(fmt.Sprintf("md: nMol = %d", nMol))
	}
	side := int(math.Ceil(math.Cbrt(float64(nMol))))
	const spacing = 3.1
	n := 3 * nMol
	s := &System{NAtom: n, Cutoff: cutoff}
	s.X = make([]float64, n)
	s.Y = make([]float64, n)
	s.Z = make([]float64, n)
	s.Q = make([]float64, n)

	rng := xrand.New(seed)
	perm := rng.Perm(n)

	// Site offsets within a molecule (rough water geometry, Å).
	off := [3][3]float64{
		{0, 0, 0},        // O
		{0.76, 0.59, 0},  // H1
		{-0.76, 0.59, 0}, // H2
	}
	charge := [3]float64{-0.8, 0.4, 0.4}

	mol := 0
	for cz := 0; cz < side && mol < nMol; cz++ {
		for cy := 0; cy < side && mol < nMol; cy++ {
			for cx := 0; cx < side && mol < nMol; cx++ {
				j := xrand.Hash64(uint64(mol) ^ seed)
				jx := 0.3 * (float64(j%1024)/1024 - 0.5)
				jy := 0.3 * (float64((j>>10)%1024)/1024 - 0.5)
				jz := 0.3 * (float64((j>>20)%1024)/1024 - 0.5)
				for k := 0; k < 3; k++ {
					site := perm[3*mol+k]
					s.X[site] = float64(cx)*spacing + off[k][0] + jx
					s.Y[site] = float64(cy)*spacing + off[k][1] + jy
					s.Z[site] = float64(cz)*spacing + off[k][2] + jz
					s.Q[site] = charge[k]
				}
				mol++
			}
		}
	}

	s.buildPairs(perm, nMol)
	return s
}

// buildPairs constructs the cutoff pair list with a uniform cell grid,
// excluding intramolecular pairs. Pairs are emitted in deterministic
// order.
func (s *System) buildPairs(perm []int, nMol int) {
	molOf := make([]int, s.NAtom)
	for m := 0; m < nMol; m++ {
		for k := 0; k < 3; k++ {
			molOf[perm[3*m+k]] = m
		}
	}
	cut2 := s.Cutoff * s.Cutoff
	cell := s.Cutoff
	if cell <= 0 {
		panic("md: cutoff must be positive")
	}
	key := func(i int) [3]int {
		return [3]int{
			int(math.Floor(s.X[i] / cell)),
			int(math.Floor(s.Y[i] / cell)),
			int(math.Floor(s.Z[i] / cell)),
		}
	}
	cells := map[[3]int][]int{}
	for i := 0; i < s.NAtom; i++ {
		k := key(i)
		cells[k] = append(cells[k], i)
	}
	// Iterate atoms in id order for determinism; probe the 27
	// neighboring cells and keep pairs (i < j).
	for i := 0; i < s.NAtom; i++ {
		ki := key(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range cells[[3]int{ki[0] + dx, ki[1] + dy, ki[2] + dz}] {
						if j <= i || molOf[i] == molOf[j] {
							continue
						}
						ddx := s.X[i] - s.X[j]
						ddy := s.Y[i] - s.Y[j]
						ddz := s.Z[i] - s.Z[j]
						if ddx*ddx+ddy*ddy+ddz*ddz <= cut2 {
							s.P1 = append(s.P1, i)
							s.P2 = append(s.P2, j)
						}
					}
				}
			}
		}
	}
}

// InvR2 returns 1/r² for pair p (precomputed pair geometry; the pair
// list and geometry are fixed for a force sweep, so the electrostatic
// loop reads only the distributed charge/state arrays, keeping the
// distributed-loop shape identical to the paper's L2).
func (s *System) InvR2(p int) float64 {
	i, j := s.P1[p], s.P2[p]
	dx := s.X[i] - s.X[j]
	dy := s.Y[i] - s.Y[j]
	dz := s.Z[i] - s.Z[j]
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0
	}
	return 1 / r2
}

// ForceKernel returns the electrostatic force kernel for the system, a
// core.Kernel: per pair, the Coulomb force magnitude
// q_i q_j / r² is accumulated positively into the first endpoint and
// negatively into the second (Newton's third law), matching the
// REDUCE(ADD, ...) pattern of loop L2.
func (s *System) ForceKernel() forceKernel { return forceKernel{s} }

// forceKernel is the kernel of a System's force loop.
type forceKernel struct{ s *System }

// Strip runs every local pair of a step: pair s.Iters[b] gathers its
// endpoint charges through s.Reads[0] and s.Reads[1] and combines f
// and -f through s.Writes[0] and s.Writes[1].
//
//chaos:hotpath
func (k forceKernel) Strip(s *kernel.Strip) {
	r1, r2, w1, w2 := &s.Reads[0], &s.Reads[1], &s.Writes[0], &s.Writes[1]
	for b, p := range s.Iters {
		f := r1.At(b) * r2.At(b) * k.s.InvR2(p)
		w1.Combine(b, f)
		w2.Combine(b, -f)
	}
}

// ForceFlops is the modeled cost of one pair of ForceKernel (including
// the pair-geometry factor).
const ForceFlops = 12
