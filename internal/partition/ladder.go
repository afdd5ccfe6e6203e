package partition

import (
	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// This file is the incremental-repartitioning support of MULTILEVEL:
// a cold run through PartitionLadder retains its distributed
// coarsening ladder, and Repartition warm-starts a slightly changed
// graph from it — the old partition is restricted down the retained
// ladder, polished k-way on the cached coarsest graph, and projected
// back up with FM refinement at every level, the finest level running
// on the NEW graph. The expensive cold-run stages — ghost-exchange
// construction, the 4-round distributed matching handshake per level,
// the distributed contraction per level, and the gathered serial
// V-cycle solve — are all skipped, which is what makes a warm
// repartition a fraction of a cold one (core.Repartitioner is the
// runtime handle that drives this; the paper's Section 3 reuse guard
// extended from "skip when unchanged" to "re-refine when slightly
// changed").

// Ladder is the retained coarsening ladder of a parallel MULTILEVEL
// run: per level the fine graph, its ghost-exchange pattern and the
// fine-to-coarse map, plus the coarsest (gathered-solve) graph and the
// scratch arena of the run that built it — warm Repartition epochs
// re-run restriction, polish and uncoarsening refinement on the
// already-grown buffers. A Ladder is per-rank state, like the Graph
// slices it holds.
type Ladder struct {
	n        int
	nparts   int
	levels   []plevel
	coarsest *geocol.Graph
	ar       *arena
}

// N returns the global vertex count of the ladder's finest graph.
func (ld *Ladder) N() int { return ld.n }

// NParts returns the part count the ladder was built for.
func (ld *Ladder) NParts() int { return ld.nparts }

// Depth returns the number of coarsening levels retained.
func (ld *Ladder) Depth() int { return len(ld.levels) }

// Bytes reports the approximate heap footprint of the retained ladder
// on this rank: the cached fine graphs, ghost-exchange patterns and
// fine-to-coarse maps of every level plus the coarsest graph. The
// scratch arena is excluded — it is bounded by the largest level the
// ladder already accounts for. The service layer's cache charges
// retained ladders against its memory cap with it.
func (ld *Ladder) Bytes() int {
	if ld == nil {
		return 0
	}
	b := ld.coarsest.Bytes()
	for i := range ld.levels {
		lv := &ld.levels[i]
		b += lv.fine.Bytes() + lv.ge.Bytes() + 8*len(lv.cmap)
	}
	return b
}

// PartitionLadder runs Partition and, when the distributed multilevel
// path was taken, additionally retains the coarsening ladder for
// incremental reuse; the ladder is nil when the serial
// gather-everything path ran (single rank, or a graph below
// ParallelThreshold — there is no k-way ladder to retain in the
// per-bisection serial V-cycle). This is the single owner of the
// serial-vs-distributed dispatch rule; Partition delegates here, so a
// cold run retains a ladder exactly when the distributed path runs.
// Collective.
func (ml Multilevel) PartitionLadder(c *machine.Ctx, g *geocol.Graph, nparts int) ([]int, *Ladder) {
	checkArgs(nparts)
	if !g.HasLink {
		panic("partition: MULTILEVEL requires a GeoCoL LINK component")
	}
	thr := ml.parallelThreshold()
	if c.Procs() > 1 && thr > 0 && g.N >= thr && g.N > ml.serialTo(nparts) {
		return ml.parallelPartitionLadder(c, g, nparts)
	}
	// One scratch arena per call on the serial path too: the recursion
	// tree shares contraction and KL-refinement buffers.
	ar := &arena{}
	return serialBisectPartition(c, g, nparts, ml.bisecter(ar)), nil
}

// Reusable reports whether the ladder can warm-start a repartition of
// g into nparts parts: the vertex space and part count must match
// (edges may have changed — that is the point).
func (ld *Ladder) Reusable(g *geocol.Graph, nparts int) bool {
	return ld != nil && len(ld.levels) > 0 && ld.n == g.N && ld.nparts == nparts
}

// Repartition warm-starts a repartition of gNew — the same vertex
// space as the ladder's finest graph with a fraction of its edges
// changed — from the retained ladder and the previous partition
// oldPart (home-local, as returned by the cold run):
//
//  1. Restrict: oldPart is restricted down the retained ladder level
//     by level (restrictPart), giving every cached coarse graph a
//     partition consistent with the previous answer.
//  2. Polish: the cached coarsest graph gets the serial k-way FM
//     polish — orders of magnitude cheaper than the cold run's
//     gathered serial V-cycle solve, because the partition to fix up
//     already exists.
//  3. Uncoarsen: the partition is projected back up (projectPart) and
//     refined at every level. Interior levels refine over the cached
//     fine graphs — their edge weights are slightly stale, which is
//     fine for a refinement heuristic — while the finest level
//     refines over gNew with a fresh ghost exchange, so the final
//     boundary optimization sees the true new connectivity.
//
// The matching handshakes, distributed contractions and the gathered
// spectral solve of a cold run are all skipped. Falls back to a full
// cold Partition when the ladder is not reusable for (gNew, nparts).
// Collective; the returned slice is home-local like Partition's.
func (ml Multilevel) Repartition(c *machine.Ctx, gNew *geocol.Graph, nparts int, ld *Ladder, oldPart []int) []int {
	// The fallback decision must itself be collective: Reusable and the
	// ladder shape are replicated, but the oldPart length check is
	// rank-local, and a lone rank going cold while its peers warm-start
	// would wedge every collective below. A one-int min-reduce makes
	// the branch uniform by construction.
	warm := 0
	if ld.Reusable(gNew, nparts) && len(oldPart) == gNew.LocalN(c.Rank()) {
		warm = 1
	}
	allWarm := c.AllReduceInt(warm, func(a, b int) int {
		if a < b {
			return a
		}
		return b
	})
	if allWarm == 0 {
		return ml.Partition(c, gNew, nparts)
	}

	// Warm epochs run on the cold run's retained arena: every scratch
	// buffer below is already at steady-state capacity. The nil-guard
	// covers hand-built ladders (tests) that never saw a cold run.
	ar := ld.ar
	if ar == nil {
		ar = &arena{}
		ld.ar = ar
	}

	// Restrict the previous partition down the retained ladder. Mixed
	// clusters (boundary clusters whose members ended in different
	// parts after fine-level refinement) take one member's part; the
	// uncoarsening refinement repairs those boundaries.
	part := append([]int(nil), oldPart...)
	for i := range ld.levels {
		lv := ld.levels[i]
		part = restrictPart(c, &ar.proj, lv.fine, lv.cmap, lv.coarse.Home, part)
	}

	serialKway(c, ar, ld.coarsest, part, nparts, 8, ml.tol())

	for i := len(ld.levels) - 1; i >= 0; i-- {
		lv := ld.levels[i]
		part = projectPart(c, &ar.proj, lv.fine, lv.cmap, lv.coarse.Home, part)
		if i == 0 {
			ge := ar.ghost.NewGhostExchange(c, gNew)
			ml.refineLevel(c, ar, gNew, ge, part, nparts, true)
		} else {
			ml.refineLevel(c, ar, lv.fine, lv.ge, part, nparts, false)
		}
	}
	return part
}
