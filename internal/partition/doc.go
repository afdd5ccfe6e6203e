// Package partition provides the library of data partitioners the
// paper's SET ... BY PARTITIONING ... USING directive selects from
// (Section 4.2: "The user will be provided a library of commonly
// available partitioners"), plus a registry so user code can link a
// customized partitioner as long as the calling sequence matches.
//
// Every partitioner consumes a GeoCoL data structure and produces a
// map array: for each vertex, the part (target processor) in
// [0, nparts). Partitioners are collective: each rank passes its
// home-resident slice of the GeoCoL graph and receives the part
// assignment for exactly those vertices. Implementations must be
// deterministic — the same graph on the same machine maps identically
// on every run and host.
//
// # Public surface
//
// Lookup selects a registered Partitioner by name ("BLOCK", "RANDOM",
// "RCB", "INERTIAL", "KL", "RSB", "RSB-KL", "MULTILEVEL", "STREAM");
// Register links a custom one, which declares the GeoCoL components it
// consumes through Capabilities. Cut measures the edge cut of a distributed
// partition. The partitioner types themselves (RCB, RSB, KL,
// Multilevel, ...) are exported so non-default configurations can be
// constructed directly or registered under their name.
//
// # Tuning the multilevel partitioner
//
// Multilevel is the recommended connectivity partitioner for large
// graphs and carries the package's tuning surface:
//
//   - CoarsenTo (default 100): vertex count at which coarsening stops
//     and the spectral solve runs. Smaller is faster and coarser;
//     larger spends more Lanczos time for marginally better seeds.
//     Safe range ~25-400.
//   - ParallelThreshold (default 2048): minimum global vertex count
//     for the distributed ladder pipeline (cold and warm entry points
//     alike; see Multilevel); below it the gather-everything serial
//     path is cheaper. Negative forces the serial path at any size.
//     It also floors the parallel ladder's serial-solve handoff,
//     max(8*CoarsenTo, ParallelThreshold) — the empirical quality
//     knee (see docs/REFINEMENT.md).
//   - Seed (default 0): salts the distributed matching's tie-breaking.
//   - Imbalance (default 0.07): balance tolerance of the distributed
//     k-way refinement; must stay below 0.5.
//
// The parallel FM refiner (prefine.go) runs a fixed 3 passes per
// uncoarsening level, 4 at the finest. STREAM takes Restreams and
// BalanceSlack (Streaming).
//
// # Guarantees pinned by tests
//
// quality_test.go pins the paper's Table 2 cut ordering (RSB < RCB <<
// BLOCK) and MULTILEVEL within 15% of RSB serially; bench_test.go
// pins MULTILEVEL >= 5x faster than RSB in host time on a 20k-node
// mesh; parallel_test.go pins the distributed path's virtual time
// strictly decreasing P=1..8 with cut within 5% of the serial
// V-cycle, plus balance, determinism and dispatch routing;
// prefine_test.go pins the refinement stack's contracts (FM improves
// seeds and holds the balance window); pipeline_pin_test.go pins the
// exact partition and virtual makespan of the cold and warm pipeline
// entry points at P in {1, 3, 8} on both backends.
// docs/REFINEMENT.md is the guided tour of the refinement stack;
// docs/ARCHITECTURE.md places the package in the paper's Figure 2
// pipeline.
package partition
