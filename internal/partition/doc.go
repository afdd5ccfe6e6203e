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
// Lookup selects a registered Partitioner by name ("BLOCK", "RCB",
// "KL", "RSB", "MULTILEVEL", "STREAM");
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
//   - CoarsenTo (default 100): vertex count at which each bisection
//     of the coarsest-level solve stops coarsening and grows its
//     split; the serial V-cycle's one ladder stops at
//     max(8*CoarsenTo, 8*nparts). Larger spends more partitioning
//     time and promises no better cut: over eight 16^3 lattices at
//     k=8 the serial mean cut reads 2295.5 / 2278.8 / 2304.9 /
//     2269.4 / 2278.6 at 25 / 50 / 100 / 200 / 400, within 1% and not
//     monotone, while virtual time rises from 0.60 to 0.98 s. Safe
//     range ~25-400.
//   - ParallelThreshold (default 2048): minimum global vertex count
//     for the distributed ladder pipeline (cold and warm entry points
//     alike; see Multilevel); below it the gather-everything serial
//     path is cheaper. Negative forces the serial path at any size.
//     It also floors the parallel ladder's serial-solve handoff,
//     max(8*CoarsenTo, ParallelThreshold) — the empirical quality
//     knee (see docs/REFINEMENT.md).
//   - Seed (default 0): salts the distributed matching's tie-breaking.
//   - Imbalance (default 0.07): balance tolerance of the k-way
//     refinement, serial and distributed; must stay below 0.5.
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
// strictly decreasing P=2..16, and below the serial path's at P=16,
// with every cut within 5% of the P=2 cut, plus balance, determinism
// and dispatch routing; TestSerialMultilevelSweep (in package
// stream's tests, which hold the hostile graph generators) pins the
// serial path's validity and balance on hostile graph families and
// its mean lattice cut;
// prefine_test.go pins the refinement stack's contracts (FM improves
// seeds and holds the balance window); pipeline_pin_test.go pins the
// exact partition and virtual makespan of the cold and warm pipeline
// entry points at P in {1, 3, 8} on both backends.
// docs/REFINEMENT.md is the guided tour of the refinement stack;
// docs/ARCHITECTURE.md places the package in the paper's Figure 2
// pipeline.
package partition
