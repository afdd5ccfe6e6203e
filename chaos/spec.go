package chaos

import (
	"chaos/internal/core"
	"chaos/internal/partition"
)

// PartitionSpec is the typed partitioner selection consumed by
// Session.SetPartitioning and Session.NewRepartitioner: a Method plus
// the multilevel tuning knobs (CoarsenTo, ParallelThreshold, Seed,
// Imbalance) and the streaming ones (Restreams, BalanceSlack). The
// zero value of every option keeps the method default, so
// PartitionSpec{Method: MethodMultilevel} behaves exactly like the
// "MULTILEVEL" string. Specs are validated against the partitioner's
// declared Capabilities and the GeoCoL graph's components before any
// work starts.
type PartitionSpec = partition.Spec

// Method is the typed identity of a partitioning method.
type Method = partition.Method

// Built-in partitioning methods: BLOCK, RCB and RSB of the paper's
// Section 4.2, MULTILEVEL and STREAM.
const (
	MethodBlock      = partition.MethodBlock
	MethodRCB        = partition.MethodRCB
	MethodRSB        = partition.MethodRSB
	MethodMultilevel = partition.MethodMultilevel
	MethodStream     = partition.MethodStream
)

// ParseSpec parses the Fortran-D-style string form of a spec: a bare
// registry name ("MULTILEVEL") or a name with a parenthesized option
// list ("MULTILEVEL(CoarsenTo=200,Seed=7)"). PartitionSpec.String
// is its inverse. It is for callers holding user-authored spec
// strings; code that knows its method writes a typed PartitionSpec
// literal (PartitionSpec{Method: MethodRCB}).
func ParseSpec(s string) (PartitionSpec, error) { return partition.ParseSpec(s) }

// Capabilities declares which GeoCoL components a partitioner
// consumes (Partitioner.Capabilities), which is what lets
// SetPartitioning validate a spec against the graph at the call site.
type Capabilities = partition.Capabilities

// Repartitioner is the stateful, reuse-guarded CONSTRUCT+PARTITION
// handle returned by Session.NewRepartitioner: beyond the
// unchanged-input guard it retains the MULTILEVEL coarsening ladder
// and previous partition, warm-starting slightly changed meshes at a
// fraction of a cold repartition. See examples/adaptive for the
// adaptive-mesh REDISTRIBUTE demo built on it.
type Repartitioner = core.Repartitioner

// RepartitionerStats counts how each Repartitioner.Map call was
// served (cache hit / cold run / warm ladder reuse).
type RepartitionerStats = core.RepartitionerStats
