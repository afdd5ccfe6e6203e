package partition

import (
	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// This file is the scratch arena of the multilevel partitioner: one
// per-run (and, through the Ladder, per-Repartitioner) bundle of every
// reusable buffer the hot paths need — gain buckets, FM snapshots,
// match-routing tables, projection/restriction routing, and the
// coarse-graph assembler. A cold PartitionLadder call creates one
// arena, threads it through coarsening, the serial solve, and every
// refinement level, and retains it in the Ladder, so warm Repartition
// epochs re-run the whole uncoarsening with steady-state capacity and
// allocate (almost) nothing. The buffers grow monotonically to the
// finest level's size and are never returned to callers: everything a
// caller keeps (cmap, coarse Graphs, part vectors) stays freshly
// allocated.
//
// An arena is single-goroutine state, like the Ladder that owns it:
// each SPMD rank runs its own Partition call and owns its own arena.
// The one deliberate aliasing rule: distHeavyEdgeMatch returns its
// match vector out of the arena, valid only until the next matching on
// the same arena — its sole caller (buildLadder) consumes it
// immediately via numberCoarse.
type arena struct {
	kl    klScratch
	kway  kwayScratch
	fm    fmScratch
	match matchScratch
	proj  projScratch
	asm   geocol.CoarseAssembler
	ghost geocol.GhostScratch
	// cs is the serial V-cycle's induce and contraction scratch.
	cs csr.Scratch
	// sides are the side vectors the serial V-cycle projects through
	// (bisect): level l's lives in sides[l%2].
	sides [2][]bool
}

// reserve sizes, from the finest level's home and global vertex
// counts, the scratch that uncoarsening would otherwise regrow at every
// level (it runs coarsest level first): parallelFM's per-vertex arrays
// and move log, and projectPart's coarse-id set and lists. What
// coarsening uses grows once without help — the finest level comes
// first there — and the ghost-sized buffers wait for the first exchange
// pattern to say how many ghosts there are.
func (ar *arena) reserve(localN, n int) {
	fm := &ar.fm
	scratch.Grow(&fm.vs, localN)
	scratch.Grow(&fm.dirty, localN)
	scratch.Grow(&fm.stamp, localN)
	scratch.Grow(&fm.locked, localN)
	scratch.Grow(&fm.movedFlag, localN)
	fm.log = make([]fmMove, 0, localN)
	ar.proj.set.Reset(n)
	scratch.Grow(&ar.proj.need, localN)
	scratch.Grow(&ar.proj.val, localN)
}

// klScratch is the per-bisection scratch of the serial KL/FM refiner
// (klRefineN): gain cache, locks, the balance-blocked stash, the move
// sequence (the vertices a pass moved, kept so the tail past the best
// prefix can be rolled back), and the candidate heap.
type klScratch struct {
	gains  []float64
	locked []bool
	stash  []int
	seq    []int
	heap   klHeap
	// side/visited/queue seed klBisect's region-growing split and
	// growBest's graph-growing trials.
	side    []bool
	visited []bool
	queue   []int
}

// kwayScratch is the scratch of the serial k-way FM refiner
// (kwayRefine): part weights, the per-candidate accumulator pair, gain
// buckets, locks, stamps, the move log and the balance-blocked stash.
type kwayScratch struct {
	W, acc       []float64
	seen         []bool
	touchedParts []int
	stamp        []int32
	locked       []bool
	log          []fmMove
	blocked      []fmCand
	fb           fmBuckets
}

// fmScratch is the scratch of the distributed hill-climbing FM refiner
// (parallelFM). ghostAdj is the flattened (CSR) reverse index from
// ghost slot to adjacent home-local vertices; ghostPart the reused
// ghost part copy; vs the per-vertex cache of cut contributions and
// best moves; touched the reused touched-slot list of the incremental
// exchanges.
type fmScratch struct {
	ghostPart     []int
	ghostAdjStart []int
	ghostAdj      []int
	vs            []fmVertex
	dirty         []bool
	W             []float64
	buf           []float64 // syncState's deposit
	all           []float64 // what syncState gathers
	acc           []float64
	seen          []bool
	touchedParts  []int
	stamp         []int32
	locked        []bool
	movedFlag     []bool
	log           []fmMove
	blocked       []fmCand
	addBudget     []float64
	subBudget     []float64
	touched       []int
	fb            fmBuckets
	// audit, nil outside tests, is called with the part vector and the
	// synced global cut wherever vs must equal a fresh scan: at every
	// sub-iteration's selection and on return.
	audit func(c *machine.Ctx, part []int, cut float64)
}

// matchScratch is the scratch of distributed matching and coarse
// numbering (pcoarsen.go): home/ghost weights, the match and target
// vectors, monotone matched flags, and the row builder of the per-rank
// proposal and notification routing.
type matchScratch struct {
	homeW        []float64
	ghostW       []float64
	match        []int
	ghostMatched []int
	newly        []bool
	target       []int
	// owner[l] is the home rank of target[l] (matching) or of match[l]
	// (numbering) when that vertex lives on another rank.
	owner []int
	rows  scratch.Rows[int]
}

// projScratch is the scratch of partition projection and restriction
// (pmultilevel.go): the set that numbers the coarse ids, their
// ascending list need and its resolved parts, and the per-rank
// request/reply routing — projectPart's request rows (req, slices of
// need) with their receive headers (in), and the row builder of its
// replies and of restrictPart's pairs.
type projScratch struct {
	set     scratch.IndexSet
	need    []int
	val     []int
	owner   []int // coarse home rank of each fine vertex (restrictPart)
	req, in [][]int
	rows    scratch.Rows[int]
}
