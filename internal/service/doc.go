// Package service is chaosd's core: partitioning-as-a-service. It
// wraps the Session/Repartitioner machinery behind a long-lived
// Server answering a small length-prefixed wire protocol — a request
// names a graph (full upload or fingerprint + churn delta) and a
// partitioning spec; the response is the part vector with cut and
// timing stats.
//
// The paper's economics motivate the shape: CHAOS amortizes
// partitioning and schedule construction across the iterations of one
// program. The service lifts that amortization across programs — a
// cache keyed by (graph fingerprint, spec value, nparts, procs)
// holds finished partitions and, for MULTILEVEL, the retained
// coarsening ladders, so one client's cold run warm-starts every other
// client's churned follow-up. The fingerprint is a fast 64-bit name,
// not a proof: every reuse is verified by comparing the request's
// content with the content the cached work was done for, so graphs
// that share a name are each answered for themselves. A churn repeat
// (the same Base and an equal Delta) is checked more cheaply and just
// as exactly: the base graph remembers which cached graph each of its
// last few deltas derived, so the repeat costs a delta compare and a
// pointer compare, not a rebuild, a fingerprint and a word-by-word
// compare of the whole graph. The memo names that graph by name and
// insertion serial, so once it is evicted the repeat is rebuilt and
// verified as before. What is reused is also what is sent: a cached
// result keeps the wire frame of its hit answer, built once, after its
// compute has been answered, and counted in the cache's bytes, and
// every wire hit writes those bytes as they are, with no copy and no
// encode. The lease covers the compare and the grab of the frame, not
// the write, so a client that stops reading pins no cache memory.
// Admission control (bounded worker pool over a bounded FIFO queue,
// typed ErrOverloaded rejection) and singleflight batching of identical
// in-flight requests keep the daemon well-behaved under load.
//
// Entry points: New/Serve/Close for the daemon, Dial/Client.Do for
// the wire client and Server.Do for in-process use. cmd/chaosd is the
// daemon binary; the repository benchmark's service_mix workload
// (benchmark/servicemix.go) is its client fleet.
package service
