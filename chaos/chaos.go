// Package chaos is the public API of CHAOS-Go, a reproduction of the
// CHAOS/PARTI runtime-compilation system of Ponnusamy, Saltz and
// Choudhary, "Runtime Compilation Techniques for Data Partitioning and
// Communication Schedule Reuse" (Supercomputing '93).
//
// The API mirrors the paper's Fortran D language extensions at the
// runtime-call level — the calls a distributed-memory compiler would
// emit (paper Figure 6):
//
//	chaos.Run(chaos.IPSC860(16), func(s *chaos.Session) {
//	    x := s.NewArray("x", nnode)            // REAL*8 x(nnode), BLOCK
//	    y := s.NewArray("y", nnode)            // REAL*8 y(nnode), BLOCK
//	    e1 := s.NewIntArray("end_pt1", nedge)  // INTEGER end_pt1(nedge)
//	    e2 := s.NewIntArray("end_pt2", nedge)
//	    // ... fill arrays ...
//	    g := s.Construct(nnode, chaos.GeoColInput{Link1: e1, Link2: e2})          // C$ CONSTRUCT G (nnode, LINK(...))
//	    m, _ := s.SetPartitioning(g, chaos.PartitionSpec{Method: chaos.MethodRSB}, // C$ SET distfmt BY PARTITIONING G USING RSB
//	        s.C.Procs())
//	    s.Redistribute(m, []*chaos.Array{x, y}, nil)                              // C$ REDISTRIBUTE reg(distfmt)
//	    flux := chaos.KernelFunc(func(st *chaos.Strip) {
//	        r1, r2, w1, w2 := &st.Reads[0], &st.Reads[1], &st.Writes[0], &st.Writes[1]
//	        for b := range st.Iters { // iteration st.Iters[b]
//	            x1, x2 := r1.At(b), r2.At(b)  // x(end_pt1(i)), x(end_pt2(i))
//	            w1.Combine(b, f(x1, x2))      // REDUCE(ADD, y(end_pt1(i)), f(...))
//	            w2.Combine(b, g(x1, x2))      // REDUCE(ADD, y(end_pt2(i)), g(...))
//	        }
//	    })
//	    loop := s.NewLoop("sweep", nedge,
//	        []chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
//	        []chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
//	        8, flux) // the kernel runs once per step on the local iterations
//	    loop.PartitionIterations(chaos.AlmostOwnerComputes)
//	    for t := 0; t < 100; t++ {
//	        loop.Execute() // inspector runs once; schedules are reused
//	    }
//	})
//
// Everything runs on a simulated distributed-memory machine (package
// internal/machine): each processor is a goroutine with a virtual clock
// charged by an iPSC/860-calibrated cost model, so experiments report
// deterministic machine-like times. The ranks run concurrently on the
// host cores, and results are bit-identical across repeated runs.
//
// SetPartitioning selects from the partitioner library of the paper's
// Section 4.2 through a typed PartitionSpec: MethodRCB consumes
// GEOMETRY; MethodRSB, MethodKL and MethodMultilevel consume LINK
// connectivity; MethodBlock is the baseline. Any other method plugs in
// behind the same interface (RegisterPartitioner). Every built-in
// partitioner declares its
// requirements as Capabilities, and a spec is validated against them
// and the graph's components before any work starts, so mismatches
// fail with a descriptive error at the call site. MULTILEVEL (coarsen
// once with heavy-edge matching, split the coarsest graph by recursive
// bisection with greedy graph-grown splits, uncoarsen with k-way FM
// refinement) matches
// RSB's cut quality at a small fraction of its cost and is the
// recommended default for large meshes; on machines with more than
// one processor it coarsens distributedly over
// the block-distributed GeoCoL graph, so — alone in the serial
// connectivity family — its partitioning time keeps falling as
// processors are added, and its tuning knobs (CoarsenTo,
// ParallelThreshold, Seed, Imbalance) are PartitionSpec fields. See docs/ARCHITECTURE.md for the trade-offs.
//
// MethodStream is the out-of-core member of the family: a streaming
// partitioner (linear deterministic greedy with a clustering bootstrap
// and restream polish, package internal/stream) whose resident state
// is bounded by the slab granularity rather than the edge count, for
// meshes too large to hold in memory. Its knobs (Restreams,
// BalanceSlack) are PartitionSpec fields too,
// and `meshgen -stream` writes meshes in its bounded-memory edge-
// stream file format.
//
// Session.NewRepartitioner returns the stateful Repartitioner handle
// for meshes that change over time: unchanged inputs are served from
// cache (the paper's Section 3 reuse guard), and slightly changed
// meshes are warm-repartitioned off the retained multilevel coarsening
// ladder at a fraction of a cold run (see examples/adaptive).
//
// The Fortran-D-style string form goes through ParseSpec:
// ParseSpec("MULTILEVEL(...)") followed by SetPartitioning produces
// bit-identical results to the typed literal.
// RegisterPartitioner links a custom implementation under its own
// name.
package chaos

import (
	"chaos/internal/core"
	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/partition"
)

// Session is one rank's runtime instance; see internal/core.Session.
type Session = core.Session

// Array is a distributed REAL*8 array.
type Array = core.Array

// IntArray is a distributed INTEGER array (indirection arrays).
type IntArray = core.IntArray

// Loop is an irregular forall loop handled by inspector/executor.
type Loop = core.Loop

// Kernel is a loop body run once per executor step on the step's local
// iterations: Strip(s) runs, for each iteration b of them in order, the
// gather of its operands (s.Reads[j].At(b)), the body, and the combine
// of its contributions (s.Writes[k].Combine(b, v)), in one loop.
type Kernel = core.Kernel

// KernelFunc adapts an ordinary function to a Kernel.
type KernelFunc = core.KernelFunc

// Strip is what one Kernel call receives: the global numbers of the
// step's local iterations, one Source per Read and one Target per
// Write.
type Strip = core.Strip

// Source is one Read of a Kernel call: At(b) is iteration b's operand,
// one indexed load from the array's own storage (Vals), whose local
// section is followed by the ghost values the step's gather brought in.
type Source = core.Source

// Target is one Write of a Kernel call: Combine(b, v) combines iteration
// b's contribution into the access's accumulation buffer with its
// Reduce operator.
type Target = core.Target

// Read is a gathered right-hand-side access Arr(Ind(i)).
type Read = core.Read

// Write is a reduced left-hand-side access Arr(Ind(i)).
type Write = core.Write

// Mapping is a computed irregular distribution (a map array).
type Mapping = core.Mapping

// GeoColInput declares the arrays feeding a CONSTRUCT directive.
type GeoColInput = core.GeoColInput

// Reduce is a left-hand-side reduction operator.
type Reduce = core.Reduce

// Reduction operators for Write accesses.
const (
	Assign = core.Assign
	Add    = core.Add
	Max    = core.Max
	Min    = core.Min
	Mul    = core.Mul
)

// Policy selects the loop-iteration placement convention.
type Policy = iterpart.Policy

// Iteration-placement policies.
const (
	AlmostOwnerComputes = iterpart.AlmostOwnerComputes
	OwnerComputes       = iterpart.OwnerComputes
	BlockIterations     = iterpart.BlockIterations
)

// Config describes the simulated machine.
type Config = machine.Config

// Ctx is the per-rank machine handle (message passing, virtual clock).
type Ctx = machine.Ctx

// IPSC860 returns a machine configuration calibrated to the Intel
// iPSC/860 hypercube used in the paper.
func IPSC860(procs int) Config { return machine.IPSC860(procs) }

// ZeroCost returns a configuration whose cost model charges nothing;
// useful for pure-correctness runs.
func ZeroCost(procs int) Config { return machine.Zero(procs) }

// Run executes body on every simulated processor with a fresh Session
// and blocks until all ranks finish. It returns an error if any rank
// panics.
func Run(cfg Config, body func(s *Session)) error {
	return machine.Run(cfg, func(c *machine.Ctx) {
		body(core.NewSession(c))
	})
}

// Partitioner is the interface user-supplied partitioners implement to
// be linked via RegisterPartitioner (paper: "the user can link a
// customized partitioner as long as the calling sequence matches").
type Partitioner = partition.Partitioner

// RegisterPartitioner links a custom partitioner into the library under
// its Name.
func RegisterPartitioner(p Partitioner) { partition.Register(p) }

// Partitioners returns the names of all linked partitioners.
func Partitioners() []string { return partition.Names() }

// Phase timer names reported by Session.Timer / Session.TimerMax.
const (
	TimerGraphGen  = core.TimerGraphGen
	TimerPartition = core.TimerPartition
	TimerRemap     = core.TimerRemap
	TimerInspector = core.TimerInspector
	TimerExecutor  = core.TimerExecutor
)
