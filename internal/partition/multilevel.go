package partition

import (
	"math"
	"math/bits"

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
//     (bisect: coarsen to CoarsenTo, split by greedy graph growing,
//     growBest, Kernighan-Lin refinement back up), and the k-way FM
//     refiner (kwayRefine) polishes the result.
//  3. Uncoarsen: the partition is projected back up level by level, and
//     kwayRefine polishes it at every level, where a handful of boundary
//     moves recover most of the quality a full-graph solve would have
//     found.
//
// The payoff is the paper's partitioning bottleneck removed: the Lanczos
// iteration — the dominant cost in the paper's Table 2 SET BY
// PARTITIONING phase — never runs. Every split is grown on a graph of
// about CoarsenTo vertices and refined on the way up, so MULTILEVEL
// delivers near-RSB edge cuts at a small fraction of RSB's cost (see
// partition/bench_test.go and quality_test.go). Like RSB it
// consumes LINK connectivity and honors LOAD weights.
//
// On a single rank (or below ParallelThreshold) the V-cycle runs on the
// gathered graph with the replicated-cost convention described on RSB
// (solveSerial). On larger machines the same three stages are one
// distributed ladder pipeline (ladder.go: coarsen → solve → uncoarsen):
// the coarsening ladder runs over the block-distributed GeoCoL graph,
// only the coarsest level is gathered, once, for the serial path's own
// V-cycle (solveSerial), and the uncoarsening is refined by the
// hill-climbing parallel FM of prefine.go. Its virtual time falls with
// the rank count from P=2 on and drops below the serial path's by 8
// ranks, while every distributed cut stays within 5% of the two-rank
// one (TestParallelMultilevelTimeScales).
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
// half of gatheredSolve), and the distributed ladder's solve of its
// gathered coarsest graph: coarsen once down to max(8·CoarsenTo,
// 8·nparts) vertices, solve the coarsest level (the recursive-bisection
// V-cycle, then an 8-pass k-way FM polish), and project back up with a
// kwayRefine at every level — 1 pass on interior levels, whose
// boundary is re-refined at every finer level, and 4 on the finest.
// Returns the part of every vertex and the flop count to charge.
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
	part, flops = recursiveBisect(&coarsest.Graph, nparts, func(g *csr.Graph, verts []int, frac float64) ([]int, []int, int64) {
		return ml.bisect(ar, g, verts, frac)
	})
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

// bisect runs one coarsen → grow → uncoarsen+refine V-cycle on the
// subgraph induced by verts; ar supplies the contraction, growing and
// KL-refinement scratch shared across the recursion tree.
func (ml Multilevel) bisect(ar *arena, g *csr.Graph, verts []int, frac float64) (left, right []int, flops int64) {
	sg := induce(&ar.cs, g, verts)
	target := sg.totalWeight() * frac
	levels, cmaps := coarsenSerial(&ar.cs, []*subgraph{sg}, ml.coarsenTo())

	// Coarsest-level solve: the best of a few greedy graph-growing
	// splits of a graph of ~coarsenTo vertices, followed by one
	// refinement pass. Its side vector is the first of the alternating
	// pair the uncoarsening below projects through.
	coarsest := levels[len(levels)-1]
	side := scratch.Grow(&ar.sides[(len(levels)-1)%2], coarsest.Len())
	growBest(&ar.kl, coarsest, target, side)
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

// growTrials is the number of start vertices growBest grows a split
// from.
const growTrials = 4

// growBest writes into side the best of growTrials greedy graph-growing
// bisections of sg (Karypis & Kumar's GGGP, the METIS initial
// partitioner): from a start vertex, the left side grows one vertex at
// a time, always taking the frontier vertex whose move lowers the cut
// the most (ties to the lower original id), until it holds targetLeftW
// of the vertex weight; when the frontier runs dry (a disconnected
// graph) the lowest-numbered vertex still outside restarts it. Trial 0
// starts at a pseudo-peripheral vertex (the far end of two
// breadth-first sweeps), the others at indices spread evenly over the
// range, and the split with the lowest cut wins (the earliest trial
// among equals). The frontier is klRefine's lazy max-heap over the
// arena's gain cache: a vertex's gain is the cut weight its move
// removes, updated as its neighbours join. Charges sg.flops with the
// sweeps, the gain upkeep and every heap operation.
//
//chaos:hotpath
func growBest(s *klScratch, sg *subgraph, targetLeftW float64, side []bool) {
	n := sg.Len()
	if n == 0 {
		return
	}
	cur := scratch.Grow(&s.visited, n)
	gains := scratch.Grow(&s.gains, n)
	h := &s.heap
	h.orig = sg.orig
	logN := int64(bits.Len(uint(n)))
	scanned, heapOps := int64(0), int64(0)

	// Two breadth-first sweeps (growBFS) find trial 0's start.
	start := s.growBFS(sg, s.growBFS(sg, 0))
	scanned += 2 * int64(n+len(sg.Adj))

	bestCut := math.Inf(1)
	for t := 0; t < growTrials; t++ {
		if t > 0 {
			start = t * n / growTrials
		}
		// gains[v] starts at minus v's weighted degree: every edge of a
		// vertex on the right is uncut, and joining the left cuts it
		// (the graphs MULTILEVEL builds carry no self-loops).
		for v := 0; v < n; v++ {
			cur[v] = false
			g := 0.0
			for k := sg.XAdj[v]; k < sg.XAdj[v+1]; k++ {
				g -= sg.EdgeWeight(k)
			}
			gains[v] = g
		}
		scanned += int64(n + len(sg.Adj))
		h.reset()
		h.push(gains[start], start)
		heapOps++
		grown, cut, next := 0.0, 0.0, 0
		for grown < targetLeftW {
			v := -1
			for h.len() > 0 {
				e := h.pop()
				heapOps++
				if !cur[e.v] && gains[e.v] == e.gain {
					v = e.v
					break
				}
			}
			if v < 0 {
				for next < n && cur[next] {
					next++
				}
				if next == n {
					break
				}
				v = next
			}
			cur[v] = true
			grown += sg.Weights[v]
			cut -= gains[v]
			for k := sg.XAdj[v]; k < sg.XAdj[v+1]; k++ {
				if u := sg.Adj[k]; !cur[u] {
					gains[u] += 2 * sg.EdgeWeight(k)
					h.push(gains[u], u)
					heapOps++
				}
			}
			scanned += int64(sg.XAdj[v+1] - sg.XAdj[v])
		}
		if cut < bestCut {
			bestCut = cut
			copy(side, cur)
		}
	}
	sg.flops += scanned + heapOps*logN
}

// growBFS runs a breadth-first sweep of sg from root over the scratch
// queue and returns the vertex it reached last, the far end of root's
// component. Two sweeps, the second from the first one's end, give
// growBest its pseudo-peripheral start vertex.
func (s *klScratch) growBFS(sg *subgraph, root int) int {
	n := sg.Len()
	seen := scratch.Grow(&s.side, n)
	for v := range seen {
		seen[v] = false
	}
	queue := append(s.queue[:0], root)
	seen[root] = true
	for head := 0; head < len(queue); head++ {
		for _, u := range sg.Adj[sg.XAdj[queue[head]]:sg.XAdj[queue[head]+1]] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	s.queue = queue
	return queue[len(queue)-1]
}
