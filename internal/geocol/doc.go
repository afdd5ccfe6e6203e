// Package geocol implements the GeoCoL (GEOmetry / COnnectivity /
// Load) interface data structure of the paper's Section 4.1: the
// standardized representation through which user programs hand
// partitioners the information data partitioning is to be based on.
//
// A GeoCoL graph has N vertices (array indices) and any combination of
//
//   - LINK connectivity (graph edges linking vertices, e.g. the union
//     of edges {ia(i), ib(i)} contributed by an irregular loop),
//   - GEOMETRY (spatial coordinates per vertex, from mesh node
//     positions), and
//   - LOAD (per-vertex computational weight).
//
// # Public surface
//
// Build is the CONSTRUCT directive: collective, with the vertices
// block-distributed over ranks (the initial default distribution of
// the paper's Phase A) and the directive keywords supplied as Options
// (WithLink, WithGeometry, WithLoad). The resulting Graph holds one
// rank's slice: it embeds csr.Graph, the one weighted graph of the
// partitioners, for its home rows (a deduplicated symmetric CSR over
// global neighbor ids, LOAD as Weights) and adds the coordinate
// columns. Gather replicates LINK and LOAD as a csr.Graph for
// partitioners that run serially, charging the communication to the
// virtual clock; GatherTo charges every rank the same and builds the
// csr.Graph on one rank only, for solves the host runs once under the
// replicated-cost convention. csr.Scratch.Contract is the serial
// contraction. Two families of helpers serve the distributed
// multilevel partitioner stack:
//
//   - BuildCoarse contracts a block-distributed Graph under a
//     clustering collectively, without ever gathering it, aggregating
//     vertex weights, merging parallel edges and dropping
//     intra-cluster edges as the serial contraction does.
//   - GhostExchange precomputes the boundary-exchange pattern of a
//     distributed Graph — which home vertices each neighbor rank
//     reads, derived locally thanks to the symmetric CSR, with no
//     request round — and moves one value per boundary vertex
//     (PushInts/PushFloatsInto), or only the changed ones
//     (UpdateIntsTouchedInto, PushMarks). A pattern retains index
//     arrays only: every exchange lays its send rows in the
//     scratch.Rows of the GhostScratch the pattern was derived on, so
//     all the levels of a ladder share one set of send buffers.
//     UpdateIntsTouchedInto also reports which ghost slots changed,
//     which is what lets the parallel FM refiner maintain its gain and
//     boundary caches incrementally instead of rescanning the ghost
//     layer every round.
//
// # Guarantees pinned by tests
//
// geocol_test.go pins CONSTRUCT semantics (dedup, symmetry,
// self-loop removal, directive validation) and Gather fidelity;
// specExchange (assembly_test.go) checks every derived exchange
// pattern against its definition, on hostile graphs and under
// FuzzGhostExchange; ghost_test.go and ownership_test.go pin the dense
// and incremental pushes, the touched-slot report and the send rows'
// ownership rule;
// TestBuildCoarseMatchesSerialContract pins the distributed
// contraction edge-for-edge against the serial csr.Scratch.Contract. The
// structure's role in the paper's pipeline is mapped in
// docs/ARCHITECTURE.md.
package geocol
