package partition

import (
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// Multilevel is the multilevel graph partitioner (Hendrickson & Leland's
// Chaco scheme, later METIS): recursive bisection where every bisection
// runs a V-cycle instead of solving on the full graph —
//
//  1. Coarsen: heavy-edge matching collapses the graph level by level
//     (coarsen.go), aggregating vertex and edge weights so each coarse
//     graph stays faithful to the finest one.
//  2. Partition: once the graph is small, the existing RSB/Lanczos
//     machinery (fiedlerSide) bisects it at the weighted median of its
//     Fiedler vector. The weighted Laplacian sees the aggregated edge
//     weights, so the coarse solve approximates the fine spectral cut.
//  3. Uncoarsen: the bisection is projected back up level by level, and
//     the existing Kernighan-Lin boundary refiner (klRefine) polishes it
//     at every level, where a handful of boundary moves recover most of
//     the quality a full-graph spectral solve would have found.
//
// The payoff is the paper's partitioning bottleneck removed: the Lanczos
// iteration — the dominant cost in the paper's Table 2 SET BY
// PARTITIONING phase — only ever runs on a graph of about CoarsenTo
// vertices, so MULTILEVEL delivers near-RSB edge cuts at a small
// fraction of RSB's cost (see partition/bench_test.go and
// quality_test.go). Like RSB and KL it consumes LINK connectivity and
// honors LOAD weights.
//
// On a single rank (or below ParallelThreshold) that recursive
// bisection runs on the gathered graph with the replicated-cost
// convention described on RSB, and it is the whole partitioner. On
// larger machines it is the coarsest-level solve of one ladder pipeline
// (ladder.go: coarsen → solve → uncoarsen): the coarsening ladder runs
// distributed over the block-distributed GeoCoL graph, only the
// coarsest level is gathered, and the uncoarsening is refined by the
// hill-climbing parallel FM of prefine.go, so the partitioner's virtual
// time falls with the rank count instead of staying flat while the cut
// stays within 5% of the serial V-cycle's. PartitionLadder and
// Repartition are that one pipeline entered cold and re-entered warm
// from a retained ladder. docs/REFINEMENT.md tours the refinement stack
// and its tuning knobs.
type Multilevel struct {
	// CoarsenTo stops coarsening once a level has at most this many
	// vertices (0 means the default of 100).
	CoarsenTo int
	// ParallelThreshold is the minimum global vertex count for the
	// distributed ladder pipeline (ladder.go), which is the
	// default whenever the machine has more than one rank and the graph
	// clears it. 0 means the default of 2048; negative forces the
	// serial gather-everything path at any size.
	ParallelThreshold int
	// Seed salts the randomized (but symmetric) tie-breaking of the
	// distributed heavy-edge matching, decorrelating the ladders of
	// repeated runs. 0 keeps the default stream.
	Seed uint64
	// Imbalance is the balance tolerance of the distributed k-way
	// refinement (fractional: 0.07 allows part weights within ±7% of
	// ideal). 0 means the default of 0.07; it must stay below 0.5.
	Imbalance float64
}

func (Multilevel) Name() string { return "MULTILEVEL" }

// Capabilities: MULTILEVEL consumes LINK connectivity.
func (Multilevel) Capabilities() Capabilities { return Capabilities{NeedsLink: true} }

// tol resolves the Imbalance default for the distributed refiners.
func (ml Multilevel) tol() float64 {
	if ml.Imbalance == 0 {
		return 0.07
	}
	return ml.Imbalance
}

func (ml Multilevel) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	// PartitionLadder is the pipeline; Partition just drops the ladder.
	part, _ := ml.PartitionLadder(c, g, nparts)
	return part
}

// parallelThreshold resolves the ParallelThreshold default.
func (ml Multilevel) parallelThreshold() int {
	if ml.ParallelThreshold == 0 {
		return 2048
	}
	return ml.ParallelThreshold
}

// bisecter binds the run's arena to the bisect callback shape
// serialBisectPartition expects.
func (ml Multilevel) bisecter(ar *arena) func(f *geocol.Full, verts []int, frac float64) ([]int, []int, int64) {
	return func(f *geocol.Full, verts []int, frac float64) ([]int, []int, int64) {
		return ml.bisect(ar, f, verts, frac)
	}
}

// bisect runs one coarsen → spectral-bisect → uncoarsen+refine V-cycle
// on the subgraph induced by verts; ar supplies the contraction and
// KL-refinement scratch shared across the recursion tree.
func (ml Multilevel) bisect(ar *arena, f *geocol.Full, verts []int, frac float64) (left, right []int, flops int64) {
	coarsenTo := ml.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = 100
	}
	sg := induce(&ar.cs, f, verts)
	totalW := sg.totalWeight()
	target := totalW * frac

	// Coarsening phase. The cluster-weight cap (1% of the group) keeps
	// the coarsest median sweep within klRefine's 2% balance slack; the
	// stall check stops when matching no longer shrinks the graph
	// meaningfully (star-like or cap-bound regions).
	levels := []*subgraph{sg}
	var cmaps [][]int
	for cur := sg; cur.Len() > coarsenTo; {
		cmap, nc := heavyEdgeMatch(cur, totalW*0.01)
		if nc > cur.Len()*9/10 {
			break
		}
		next := contract(&ar.cs, cur, cmap, nc)
		cmaps = append(cmaps, cmap)
		levels = append(levels, next)
		cur = next
	}

	// Coarsest-level solve: the spectral split RSB would run, now on a
	// graph of ~coarsenTo vertices, followed by one refinement pass.
	coarsest := levels[len(levels)-1]
	side := fiedlerSide(coarsest, frac)
	klRefine(&ar.kl, coarsest, side, target)

	// Uncoarsening: project the side assignment through each matching
	// and let the KL refiner polish the boundary at every level. The
	// projection preserves the cut weight and the balance exactly, so
	// refinement only ever improves the partition. Interior levels get
	// a reduced pass budget — their boundary is re-refined at every
	// finer level — while the finest level gets the full one.
	for l := len(levels) - 2; l >= 0; l-- {
		fine := levels[l]
		cmap := cmaps[l]
		// Two arena buffers alternate between adjacent levels: side (the
		// coarser level's) is read while fineSide is written.
		fineSide := scratch.Grow(&ar.sides[l%2], len(cmap))
		for v := range fineSide {
			fineSide[v] = side[cmap[v]]
		}
		fine.flops += int64(len(cmap))
		passes := 1
		if l == 0 {
			passes = 4
		}
		klRefineN(&ar.kl, fine, fineSide, target, passes)
		side = fineSide
	}

	left, right = splitSides(sg, side)
	for _, lv := range levels {
		flops += lv.flops
	}
	return left, right, flops
}
