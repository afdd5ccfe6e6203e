// Package iterpart implements the paper's workload (loop-iteration)
// partitioning phase (Section 4.3). After data arrays are distributed,
// each loop iteration is assigned to one processor by the runtime's
// almost-owner-computes rule, which "places a loop iteration on the
// processor that is the home of the largest number of the iteration's
// distributed array references."
//
// The decision is pure and local once reference owners are known;
// batching and communication live in the core runtime.
package iterpart

import "fmt"

// Policy selects the iteration-placement convention.
type Policy int

// AlmostOwnerComputes is the one placement convention: the paper's
// default and the only one its experiments run.
const AlmostOwnerComputes Policy = 0

func (p Policy) String() string {
	switch p {
	case AlmostOwnerComputes:
		return "almost-owner-computes"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Choose picks the home rank of one iteration. refOwners lists the
// owning ranks of every distributed-array reference the iteration
// makes (reads and writes); lhsOwner is the owner of the first
// left-hand-side reference, which wins ties; blockHome is the
// iteration's home under the default block distribution, kept when
// the iteration makes no reference.
func Choose(refOwners []int, lhsOwner, blockHome int, policy Policy) int {
	switch policy {
	case AlmostOwnerComputes:
		if len(refOwners) == 0 {
			return blockHome
		}
		// Majority vote over (small) reference lists; ties go to the
		// LHS owner when it is among the leaders, else the lowest
		// leading rank, deterministically.
		count := func(o int) int {
			n := 0
			for _, r := range refOwners {
				if r == o {
					n++
				}
			}
			return n
		}
		best, bestN := -1, -1
		for _, o := range refOwners {
			n := count(o)
			if n > bestN || (n == bestN && o < best) {
				best, bestN = o, n
			}
		}
		if count(lhsOwner) == bestN {
			return lhsOwner
		}
		return best
	default:
		panic(fmt.Sprintf("iterpart: unknown policy %d", int(policy)))
	}
}
