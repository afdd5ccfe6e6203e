package chaos

import (
	"chaos/internal/core"
	"chaos/internal/partition"
)

// PartitionSpec is the typed partitioner selection consumed by
// Session.SetPartitioning and Session.NewRepartitioner: a Method plus
// the multilevel tuning knobs (CoarsenTo, ParallelThreshold, FMPasses,
// VCycle, Seed, Imbalance). The zero value of every option keeps the
// method default, so PartitionSpec{Method: MethodMultilevel} behaves
// exactly like the "MULTILEVEL" string. Specs are validated against the
// partitioner's declared Capabilities and the GeoCoL graph's
// components before any work starts.
type PartitionSpec = partition.Spec

// Method is the typed identity of a partitioning method.
type Method = partition.Method

// Built-in partitioning methods (paper Section 4.2 plus MULTILEVEL).
const (
	MethodBlock      = partition.MethodBlock
	MethodRandom     = partition.MethodRandom
	MethodRCB        = partition.MethodRCB
	MethodInertial   = partition.MethodInertial
	MethodRSB        = partition.MethodRSB
	MethodRSBKL      = partition.MethodRSBKL
	MethodKL         = partition.MethodKL
	MethodMultilevel = partition.MethodMultilevel
	MethodStream     = partition.MethodStream
)

// StreamObjective names the greedy placement rule of the STREAM
// out-of-core partitioner; set it through PartitionSpec.Objective
// (together with StreamBuffer, Restreams and BalanceSlack, which apply
// to MethodStream only).
type StreamObjective = partition.StreamObjective

// STREAM placement objectives.
const (
	ObjectiveLDG    = partition.ObjectiveLDG
	ObjectiveFennel = partition.ObjectiveFennel
)

// ParseSpec parses the Fortran-D-style string form of a spec: a bare
// registry name ("MULTILEVEL") or a name with a parenthesized option
// list ("MULTILEVEL(CoarsenTo=200,VCycle=true)"). PartitionSpec.String
// is its inverse. It is for callers holding user-authored spec
// strings; code that knows its method writes a typed PartitionSpec
// literal (PartitionSpec{Method: MethodRCB}).
func ParseSpec(s string) (PartitionSpec, error) { return partition.ParseSpec(s) }

// Capabilities describes what a partitioner consumes and supports;
// see PartitionerV2.
type Capabilities = partition.Capabilities

// PartitionerV2 is a Partitioner that reports its Capabilities, which
// is what lets SetPartitioning validate a spec against the GeoCoL
// graph at the call site. All built-in partitioners implement it;
// custom partitioners registered without capability metadata are
// treated as declaring no requirements.
type PartitionerV2 = partition.PartitionerV2

// PartitionerCaps reports p's capabilities (the zero Capabilities for
// a legacy v1 partitioner).
func PartitionerCaps(p Partitioner) Capabilities { return partition.Caps(p) }

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
