// Package stream is the out-of-core streaming layer of the partitioner
// library: bounded-memory graph streams and the one-pass greedy
// partitioner family built on them (registered as the STREAM method of
// internal/partition).
//
// Every method in the resident registry family (BLOCK … MULTILEVEL)
// needs the whole GeoCoL graph in memory before partitioning starts.
// This package drops that assumption. A graph arrives as a GraphStream
// — a replayable sequence of CSR slabs in global vertex order, each
// bounded by the format's fringe caps — and the pass engine places one
// vertex at a time by linear deterministic greedy (LDG), keeping only
//
//   - the part assignment vector (the answer itself, 8 bytes/vertex),
//   - the per-part load table (8 bytes/part), and
//   - one slab of adjacency (the resident fringe, bounded by
//     MaxSlabVerts/MaxSlabAdj regardless of graph size)
//
// resident. Edges stream through and are never stored, so graphs
// 10-100x larger than memory partition in O(vertices) space — the
// out-of-core contract. Optional buffered restreaming (Options.Restreams) replays
// the stream and re-places every vertex with full knowledge of its
// neighbors' assignments, recovering most of the cut quality a
// single blind pass loses; the quality bar against MULTILEVEL is
// pinned by internal/partition's TestStreamQualityMemoryPin.
//
// The binary edge-stream file format (format.go: header + chunked CSR
// slabs, uvarint-encoded) is what cmd/meshgen -stream emits and
// chaosd-adjacent tooling consumes; its decoder is defensive in the
// style of internal/service/wire.go — every count is bounds-checked
// against the format caps before anything is allocated, and truncated,
// oversized, unsorted or duplicate-edge inputs produce descriptive
// errors, never a panic (FuzzStreamDecode pins this).
//
// The package is deliberately machine-free: it knows nothing about
// ranks or collectives. internal/partition's Streaming adapter runs
// the same Placer core under the SPMD machine, and the two stay
// deterministic with each other at a fixed seed.
package stream
