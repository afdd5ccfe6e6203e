// Package iterpart implements the paper's workload (loop-iteration)
// partitioning phase (Section 4.3). After data arrays are distributed,
// each loop iteration is assigned to one processor:
//
//   - AlmostOwnerComputes (the runtime's default, per the paper):
//     "places a loop iteration on the processor that is the home of the
//     largest number of the iteration's distributed array references."
//   - OwnerComputes: the classical convention — the iteration runs on
//     the owner of the left-hand-side reference.
//   - BlockIterations: keep the default block assignment (the baseline
//     that ignores data placement).
//
// The decisions are pure and local once reference owners are known;
// batching and communication live in the core runtime.
package iterpart

import "fmt"

// Policy selects the iteration-placement convention.
type Policy int

const (
	AlmostOwnerComputes Policy = iota
	OwnerComputes
	BlockIterations
)

func (p Policy) String() string {
	switch p {
	case AlmostOwnerComputes:
		return "almost-owner-computes"
	case OwnerComputes:
		return "owner-computes"
	case BlockIterations:
		return "block-iterations"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Choose picks the home rank of one iteration. refOwners lists the
// owning ranks of every distributed-array reference the iteration
// makes (reads and writes); lhsOwner is the owner of the first
// left-hand-side reference (used by OwnerComputes and as the
// almost-owner-computes tie-break); blockHome is the iteration's home
// under the default block distribution (used by BlockIterations).
func Choose(refOwners []int, lhsOwner, blockHome int, policy Policy) int {
	switch policy {
	case OwnerComputes:
		return lhsOwner
	case BlockIterations:
		return blockHome
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

// ChooseAll applies Choose to a batch: refOwners[i] holds iteration i's
// reference owners, lhsOwner[i] its LHS owner, blockHome[i] its default
// home.
func ChooseAll(refOwners [][]int, lhsOwner, blockHome []int, policy Policy) []int {
	out := make([]int, len(refOwners))
	for i := range refOwners {
		out[i] = Choose(refOwners[i], lhsOwner[i], blockHome[i], policy)
	}
	return out
}
