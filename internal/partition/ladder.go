package partition

import (
	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// This file is the ladder pipeline of MULTILEVEL — coarsen → solve →
// uncoarsen, each stage existing once — and its two entry points:
// PartitionLadder (cold; below the dispatch threshold the same three
// stages run serially on rank 0, solveSerial) and Repartition (warm: no
// coarsen, the old partition restricted down a retained ladder). A warm
// run skips the ghost-exchange construction, the 4-round matching
// handshake and the distributed contraction of every level and the
// gathered solve, which is what makes it a fraction of a cold one
// (core.Repartitioner is the runtime handle that drives this; the
// paper's Section 3 reuse guard extended from "skip when unchanged" to
// "re-refine when slightly changed").

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

// Reusable reports whether the ladder can warm-start a repartition of
// g into nparts parts: the vertex space and part count must match
// (edges may have changed — that is the point).
func (ld *Ladder) Reusable(g *geocol.Graph, nparts int) bool {
	return ld != nil && len(ld.levels) > 0 && ld.n == g.N && ld.nparts == nparts
}

// retained is what an entry point hands back: the ladder, or nil when
// matching stalled on the input graph itself and there is no level a
// warm start could skip.
func (ld *Ladder) retained() *Ladder {
	if len(ld.levels) == 0 {
		return nil
	}
	return ld
}

// distributed is the dispatch rule of every entry point: the ladder
// runs distributed when the machine has more than one rank and the
// graph clears both ParallelThreshold and the serial handoff size;
// otherwise the gather-everything serial path is cheaper (a single
// rank, a sub-threshold graph, or a negative ParallelThreshold).
func (ml Multilevel) distributed(c *machine.Ctx, g *geocol.Graph, nparts int) bool {
	thr := ml.parallelThreshold()
	return c.Procs() > 1 && thr > 0 && g.N >= thr && g.N > ml.serialTo(nparts)
}

// clusterCap returns the cluster-weight cap of g's ladders, 1% of the
// total vertex weight: it keeps every coarse level balanceable within
// the refiners' window. Collective.
func clusterCap(c *machine.Ctx, g *geocol.Graph) float64 {
	totalW := 0.0
	for l := 0; l < g.LocalN(c.Rank()); l++ {
		totalW += g.Weight(l)
	}
	return c.SumFloat(totalW) * 0.01
}

// coarsen builds one coarsening ladder of g, down to the serial
// handoff size or until matching stalls (buildLadder). The ladder may
// have no levels; its coarsest graph is then g itself. Collective.
func (ml Multilevel) coarsen(c *machine.Ctx, ar *arena, g *geocol.Graph, nparts int) *Ladder {
	levels, coarsest := buildLadder(c, ar, g, ml.serialTo(nparts), clusterCap(c, g), ml.Seed)
	return &Ladder{n: g.N, nparts: nparts, levels: levels, coarsest: coarsest, ar: ar}
}

// uncoarsen projects the coarsest level's partition back up the ladder
// — each home vertex pulls its part from its coarse vertex's owner —
// and refines every level in place. A non-nil finest replaces the
// ladder's finest graph (the warm path: interior levels refine over
// the cached graphs, whose edge weights are slightly stale, which is
// fine for a refinement heuristic, while the last refinement sees the
// new graph's true connectivity through a fresh ghost exchange).
// Collective.
func (ml Multilevel) uncoarsen(c *machine.Ctx, ld *Ladder, part []int, finest *geocol.Graph) []int {
	ar := ld.ar
	for i := len(ld.levels) - 1; i >= 0; i-- {
		lv := ld.levels[i]
		part = projectPart(c, &ar.proj, lv.fine, lv.cmap, lv.coarse.Home, part)
		fine, ge := lv.fine, lv.ge
		if i == 0 && finest != nil {
			fine, ge = finest, ar.ghost.NewGhostExchange(c, finest)
		}
		ml.refineLevel(c, ar, fine, ge, part, ld.nparts, i == 0)
	}
	return part
}

// polishCoarsest refines an existing partition of a ladder's coarsest
// level by the dispatch rule: below ParallelThreshold the level is
// gathered for the exact serial k-way FM; at or above it (matching
// stalled early) it is a graph that must never be gathered, and the
// distributed FM refines it in place over a fresh ghost exchange.
// Collective.
func (ml Multilevel) polishCoarsest(c *machine.Ctx, ar *arena, coarsest *geocol.Graph, part []int, nparts int) {
	if coarsest.N < ml.parallelThreshold() {
		serialKway(c, ar, coarsest, part, nparts, 8, ml.tol())
		return
	}
	parallelFM(c, &ar.fm, coarsest, ar.ghost.NewGhostExchange(c, coarsest), part, nparts, 3, ml.tol())
}

// PartitionLadder runs Partition and, when the distributed path was
// taken, additionally retains the coarsening ladder for incremental
// reuse; the ladder is nil when the serial gather-everything path ran
// (its ladder lives on rank 0 alone, not as the per-rank levels a
// warm start restricts down). Partition delegates here, so a cold run
// retains a ladder exactly when the distributed path runs. Collective.
func (ml Multilevel) PartitionLadder(c *machine.Ctx, g *geocol.Graph, nparts int) ([]int, *Ladder) {
	checkArgs(nparts)
	if !g.HasLink {
		panic("partition: MULTILEVEL requires a GeoCoL LINK component")
	}
	if !ml.distributed(c, g, nparts) {
		// The serial V-cycle on the gathered graph. Its arena (the
		// ladder, the recursion tree and the k-way refinements share
		// contraction, KL and FM buffers) is a site of its own so that
		// it stays on the stack.
		ar := &arena{}
		return gatheredSolve(c, g, func(f *geocol.Full) ([]int, int64) {
			return ml.solveSerial(ar, &f.Graph, nparts)
		}), nil
	}
	// One arena per run, threaded through coarsening, the serial solve
	// and every refinement level, then retained in the Ladder so warm
	// Repartition epochs reuse the grown buffers.
	ar := &arena{}
	ar.reserve(g.LocalN(c.Rank()))
	ld := ml.coarsen(c, ar, g, nparts)

	// Coarsest-level solve: the serial recursive-bisection V-cycle on
	// the gathered coarse graph (weighted vertices and edges preserve
	// the fine graph's cut and balance exactly), followed by a k-way FM
	// polish — the recursive bisection only ever refined 2-way inside
	// each split, the polish is nearly free on the already-small graph,
	// and every edge it removes is an edge no uncoarsening level has to
	// fight for.
	part := serialBisectPartition(c, ld.coarsest, nparts, ml.bisecter(ar))
	serialKway(c, ar, ld.coarsest, part, nparts, 8, ml.tol())
	return ml.uncoarsen(c, ld, part, nil), ld.retained()
}

// Repartition warm-starts a repartition of gNew — the same vertex
// space as the ladder's finest graph with a fraction of its edges
// changed — from the retained ladder and the previous partition
// oldPart (home-local, as returned by the cold run):
//
//  1. Restrict: oldPart is restricted down the retained ladder level
//     by level (restrictPart), giving every cached coarse graph a
//     partition consistent with the previous answer.
//  2. Polish: the cached coarsest graph gets polishCoarsest — the
//     serial k-way FM, or the distributed FM where the ladder's
//     matching stalled at or above ParallelThreshold — orders of
//     magnitude cheaper than the cold run's gathered serial V-cycle
//     solve, because the partition to fix up already exists.
//  3. Uncoarsen: the same uncoarsen as a cold run, its finest level
//     refining over gNew.
//
// Falls back to a full cold Partition when the ladder is not reusable
// for (gNew, nparts). Collective; the returned slice is home-local
// like Partition's.
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

	// Warm epochs run on the retained arena: every scratch buffer below
	// is already at steady-state capacity. A ladder whose arena was
	// dropped gets a pristine one (TestArenaReuseBitIdentical drops it
	// before every epoch to prove stale buffer contents decide nothing).
	if ld.ar == nil {
		ld.ar = &arena{}
	}

	// Mixed clusters (boundary clusters whose members ended in different
	// parts after fine-level refinement) take one member's part; the
	// uncoarsening refinement repairs those boundaries.
	part := append([]int(nil), oldPart...)
	for i := range ld.levels {
		lv := ld.levels[i]
		part = restrictPart(c, &ld.ar.proj, lv.fine, lv.cmap, lv.coarse.Home, part)
	}
	ml.polishCoarsest(c, ld.ar, ld.coarsest, part, nparts)
	return ml.uncoarsen(c, ld, part, gNew)
}
