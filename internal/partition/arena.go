package partition

import (
	"chaos/internal/geocol"
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
	ct    geocol.Contractor
	// sides are the side vectors the serial V-cycle projects through
	// (bisect): level l's lives in sides[l%2].
	sides [2][]bool
}

// reserve sizes, from the finest level's home vertex count, the scratch
// that uncoarsening would otherwise regrow at every level (it runs
// coarsest level first): parallelFM's per-vertex arrays and move log,
// and projectPart's coarse-id lists. What coarsening
// uses grows once without help — the finest level comes first there —
// and the ghost-sized buffers wait for the first exchange pattern to
// say how many ghosts there are.
func (ar *arena) reserve(localN int) {
	fm := &ar.fm
	scratch.Grow(&fm.cutW, localN)
	scratch.Grow(&fm.boundary, localN)
	scratch.Grow(&fm.dirty, localN)
	scratch.Grow(&fm.stamp, localN)
	scratch.Grow(&fm.locked, localN)
	scratch.Grow(&fm.movedFlag, localN)
	fm.log = make([]fmMove, 0, localN)
	scratch.Grow(&ar.proj.need, localN)
	scratch.Grow(&ar.proj.val, localN)
}

// klScratch is the per-bisection scratch of the serial KL/FM refiner
// (klRefineN): gain cache, locks, the balance-blocked stash, the move
// sequence, and the candidate heap.
type klScratch struct {
	gains  []float64
	locked []bool
	stash  []int
	seq    []klMove
	heap   klHeap
	// side/visited/queue seed klBisect's region-growing split.
	side    []bool
	visited []bool
	queue   []int
	// local is induce's global → subgraph-local scatter array, stamped
	// per call with bases counted from localBase (never re-cleared).
	local     []int
	localBase int
}

// kwayScratch is the scratch of the serial k-way FM refiner
// (kwayRefine): part weights, the per-candidate accumulator pair, gain
// buckets, locks, stamps, the move log and the balance-blocked stash.
type kwayScratch struct {
	W, acc       []float64
	seen         []bool
	touchedParts []int
	stamp        []int
	locked       []bool
	log          []fmMove
	blocked      []fmCand
	fb           fmBuckets
}

// fmScratch is the scratch of the distributed hill-climbing FM refiner
// (parallelFM). ghostAdj is the flattened (CSR) reverse index from
// ghost slot to adjacent home-local vertices; ghostPart the reused
// ghost part copy; touched the reused touched-slot list of the
// incremental exchanges.
type fmScratch struct {
	ghostPart     []int
	ghostAdjStart []int
	ghostAdj      []int
	cutW          []float64
	boundary      []bool
	dirty         []bool
	W             []float64
	buf           []float64
	acc           []float64
	seen          []bool
	touchedParts  []int
	stamp         []int
	locked        []bool
	movedFlag     []bool
	log           []fmMove
	blocked       []fmCand
	addBudget     []float64
	subBudget     []float64
	touched       []int
	fb            fmBuckets
}

// matchScratch is the scratch of distributed matching and coarse
// numbering (pcoarsen.go): home/ghost weights, the match and target
// vectors, monotone matched flags, and the per-rank proposal and
// notification routing.
type matchScratch struct {
	homeW        []float64
	ghostW       []float64
	match        []int
	ghostMatched []int
	newly        []bool
	target       []int
	// owner[l] is the home rank of target[l] (matching) or of match[l]
	// (numbering) when that vertex lives on another rank.
	owner  []int
	props  rankRows
	notify rankRows
}

// projScratch is the scratch of partition projection and restriction
// (pmultilevel.go): the sorted coarse-id list, its resolved parts, and
// the per-rank request/reply routing.
type projScratch struct {
	need  []int
	val   []int
	owner []int // coarse home rank of each fine vertex (restrictPart)
	req   [][]int
	rep   rankRows
	out   rankRows
}

// rankRows builds the rows of an all-to-all — one int slice per
// destination rank — inside one flat array: the caller counts what
// each rank gets, lay carves the array into empty rows of exactly those
// capacities, and the caller appends into them. No row ever grows, and
// the flat array grows only when a level outsizes every earlier one
// (AlltoAll copies payloads before delivery, so the array is free again
// as soon as the exchange returns).
type rankRows struct {
	n    []int
	flat []int
	rows [][]int
}

// counts returns procs zeroed counters; the caller adds to counts[r]
// the number of ints bound for rank r.
func (rr *rankRows) counts(procs int) []int {
	n := scratch.Grow(&rr.n, procs)
	clear(n)
	return n
}

// lay returns the rows for the counts just taken: each empty, with
// exactly its counted capacity.
//
//chaos:hotpath
func (rr *rankRows) lay() [][]int {
	total := 0
	for _, k := range rr.n {
		total += k
	}
	flat := scratch.Grow(&rr.flat, total)
	rows := growRows(&rr.rows, len(rr.n))
	off := 0
	for r, k := range rr.n {
		rows[r] = flat[off : off : off+k]
		off += k
	}
	return rows
}

// growRows sizes a per-rank table of row headers to procs nil entries.
func growRows(s *[][]int, procs int) [][]int {
	rows := scratch.Grow(s, procs)
	clear(rows)
	return rows
}

// ensure readies reusable gain buckets: first use allocates the fixed
// bucket array, later uses just empty it.
func (fb *fmBuckets) ensure() {
	if fb.buckets == nil {
		fb.buckets = make([][]fmCand, 2*fmBucketSpan+1)
		fb.head = make([]int, 2*fmBucketSpan+1)
	}
	fb.reset()
}
