package partition

import (
	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// Multilevel is the multilevel graph partitioner (Hendrickson & Leland's
// Chaco scheme, later METIS): one V-cycle over the whole graph —
//
//  1. Coarsen: heavy-edge matching collapses the graph level by level
//     (coarsen.go), aggregating vertex and edge weights so each coarse
//     graph stays faithful to the finest one, until a level has at most
//     max(8·CoarsenTo, 8·nparts) vertices or matching stalls.
//  2. Partition: the coarsest graph is split into nparts parts by
//     recursive bisection, each bisection a small V-cycle of its own
//     (bisect: coarsen to CoarsenTo, split at the weighted median of the
//     Fiedler vector, Kernighan-Lin refinement back up), and the k-way
//     FM refiner (kwayRefine) polishes the result.
//  3. Uncoarsen: the partition is projected back up level by level, and
//     kwayRefine polishes it at every level, where a handful of boundary
//     moves recover most of the quality a full-graph solve would have
//     found.
//
// The payoff is the paper's partitioning bottleneck removed: the Lanczos
// iteration — the dominant cost in the paper's Table 2 SET BY
// PARTITIONING phase — only ever runs on a graph of about CoarsenTo
// vertices, so MULTILEVEL delivers near-RSB edge cuts at a small
// fraction of RSB's cost (see partition/bench_test.go and
// quality_test.go). Like RSB and KL it consumes LINK connectivity and
// honors LOAD weights.
//
// On a single rank (or below ParallelThreshold) the V-cycle runs on the
// gathered graph with the replicated-cost convention described on RSB
// (solveSerial). On larger machines the same three stages are one
// distributed ladder pipeline (ladder.go: coarsen → solve → uncoarsen):
// the coarsening ladder runs over the block-distributed GeoCoL graph,
// only the coarsest level is gathered for step 2, and the uncoarsening
// is refined by the hill-climbing parallel FM of prefine.go. Its
// virtual time falls with the rank count from P=2 on and drops below
// the serial path's by 16 ranks, while every distributed cut stays
// within 5% of the two-rank one (TestParallelMultilevelTimeScales).
// PartitionLadder and Repartition are that pipeline entered cold and
// re-entered warm from a retained ladder. docs/REFINEMENT.md tours the
// refinement stack and its tuning knobs.
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
	// Imbalance is the balance tolerance of the k-way refinement,
	// serial and distributed (fractional: 0.07 allows part weights
	// within ±7% of ideal). 0 means the default of 0.07; it must stay
	// below 0.5.
	Imbalance float64
}

func (Multilevel) Name() string { return "MULTILEVEL" }

// Capabilities: MULTILEVEL consumes LINK connectivity.
func (Multilevel) Capabilities() Capabilities { return Capabilities{NeedsLink: true} }

// tol resolves the Imbalance default for the k-way refiners.
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

// coarsenTo resolves the CoarsenTo default.
func (ml Multilevel) coarsenTo() int {
	if ml.CoarsenTo <= 0 {
		return 100
	}
	return ml.CoarsenTo
}

// solveSerial is serial MULTILEVEL on the gathered graph g (rank 0's
// half of gatheredSolve): coarsen once down to max(8·CoarsenTo,
// 8·nparts) vertices, solve the coarsest level the way the distributed
// ladder solves its gathered one (the recursive-bisection V-cycle, then
// an 8-pass k-way FM polish), and project back up with a kwayRefine
// at every level — 1 pass on interior levels, whose boundary is
// re-refined at every finer level, and 4 on the finest. Returns the
// part of every vertex and the flop count to charge.
func (ml Multilevel) solveSerial(ar *arena, g *csr.Graph, nparts int) (part []int, flops int64) {
	n := g.Len()
	top := &subgraph{Graph: *g, orig: make([]int, n)}
	for v := range top.orig {
		top.orig[v] = v
	}
	if top.Weights == nil {
		top.Weights = make([]float64, n)
		for v := range top.Weights {
			top.Weights[v] = 1
		}
	}
	levels, cmaps := coarsenSerial(&ar.cs, []*subgraph{top}, max(8*ml.coarsenTo(), 8*nparts))

	coarsest := levels[len(levels)-1]
	part, flops = recursiveBisect(&coarsest.Graph, nparts, ml.bisecter(ar))
	flops += kwayRefine(&ar.kway, &coarsest.Graph, part, nparts, 8, ml.tol())

	for l := len(levels) - 2; l >= 0; l-- {
		fine, cmap := levels[l], cmaps[l]
		finePart := make([]int, len(cmap))
		for v, cv := range cmap {
			finePart[v] = part[cv]
		}
		fine.flops += int64(len(cmap))
		passes := 1
		if l == 0 {
			passes = 4
		}
		flops += kwayRefine(&ar.kway, &fine.Graph, finePart, nparts, passes, ml.tol())
		part = finePart
	}
	for _, lv := range levels {
		flops += lv.flops
	}
	return part, flops
}

// bisecter binds the run's arena to the bisectFunc shape
// recursiveBisect expects.
func (ml Multilevel) bisecter(ar *arena) bisectFunc {
	return func(g *csr.Graph, verts []int, frac float64) ([]int, []int, int64) {
		return ml.bisect(ar, g, verts, frac)
	}
}

// bisect runs one coarsen → spectral-bisect → uncoarsen+refine V-cycle
// on the subgraph induced by verts; ar supplies the contraction and
// KL-refinement scratch shared across the recursion tree.
func (ml Multilevel) bisect(ar *arena, g *csr.Graph, verts []int, frac float64) (left, right []int, flops int64) {
	sg := induce(&ar.cs, g, verts)
	target := sg.totalWeight() * frac
	levels, cmaps := coarsenSerial(&ar.cs, []*subgraph{sg}, ml.coarsenTo())

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
