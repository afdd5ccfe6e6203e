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
//	    flux := chaos.KernelFunc(func(iters []int, in, out []float64) {
//	        for b := range iters { // in[2b], in[2b+1] = x(end_pt1(i)), x(end_pt2(i))
//	            x1, x2 := in[2*b], in[2*b+1]
//	            out[2*b], out[2*b+1] = f(x1, x2), g(x1, x2) // REDUCE(ADD, y(end_ptK(i)), ...)
//	        }
//	    })
//	    loop := s.NewLoop("sweep", nedge,
//	        []chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
//	        []chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
//	        8, flux) // the kernel runs once per strip of up to 256 iterations
//	    loop.PartitionIterations(chaos.AlmostOwnerComputes)
//	    for t := 0; t < 100; t++ {
//	        loop.Execute() // inspector runs once; schedules are reused
//	    }
//	})
//
// Everything runs on a simulated distributed-memory machine (package
// internal/machine): each processor is a goroutine with a virtual clock
// charged by an iPSC/860-calibrated cost model, so experiments report
// deterministic machine-like times. Config.Backend (or RunReal)
// switches to the Real backend, where the same program executes on
// host cores with physical payload delivery and reports wall time
// next to the virtual clock; results are bit-identical between
// backends at a fixed Config.Seed.
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
	"context"

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

// Kernel is a loop body run once per strip of iterations: Strip(iters,
// in, out) reads len(iters)·R gathered operands from in and writes
// len(iters)·W contributions to out, iteration-major, for a loop of R
// reads and W writes.
type Kernel = core.Kernel

// KernelFunc adapts an ordinary function to a Kernel.
type KernelFunc = core.KernelFunc

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

// Backend selects the execution backend of a Run: Simulated (the
// default virtual-clock simulator) or Real (ranks execute on host
// cores with physical payload delivery). Set it via Config.Backend or
// use RunReal.
type Backend = machine.Backend

// Execution backends for Config.Backend.
const (
	Simulated = machine.Simulated
	Real      = machine.Real
)

// Stats reports both timing trajectories of one run: the simulated
// makespan (MaxClock, virtual seconds) and the host wall time
// (Elapsed, max-reduced across ranks).
type Stats = machine.Stats

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

// RunReal executes body on the Real backend: ranks run on host cores
// (at most min(GOMAXPROCS, Procs) computing concurrently), payloads
// are physically copied into receiver memory, and the returned Stats
// carry the host wall time next to the virtual clock the same run
// charged. Cancelling ctx unwinds every rank — including ranks blocked
// mid-collective — and returns an error wrapping ctx.Err(). Results
// are bit-identical to Run with the same Config.Seed.
func RunReal(ctx context.Context, cfg Config, body func(s *Session)) (Stats, error) {
	cfg.Backend = Real
	return machine.RunStats(ctx, cfg, func(c *machine.Ctx) {
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
