package core

import (
	"fmt"

	"chaos/internal/geocol"
	"chaos/internal/partition"
	"chaos/internal/registry"
)

// Repartitioner is the stateful, reuse-guarded CONSTRUCT+PARTITION
// handle (paper Section 3, extended): it carries the conservative
// DAD/timestamp guard that skips all work when no input array may
// have changed, and — for the MULTILEVEL method on the distributed
// path — the retained coarsening ladder and previous partition, so a
// *slightly* changed mesh is warm-started by restricting the old
// partition onto the cached ladder and re-running only refinement
// (partition.Ladder), a fraction of a cold run.
//
// Warm reuse is guarded by quality, not by a counter: every warm
// repartition measures its edge cut against the cut of the last
// accepted build (cold or warm — the baseline rolls forward with the
// mesh, so gradual adaptation that legitimately inflates the cut is
// not mistaken for ladder drift), and when the ratio exceeds DriftTol
// the retained ladder has demonstrably drifted away from the current
// connectivity and is rebuilt cold in the same Map call. An adaptation
// sequence that stays local therefore warms indefinitely, while one
// that rewires the mesh re-colds exactly when the numbers say so.
//
// Repartitioner is per-rank state created inside the SPMD body via
// Session.NewRepartitioner; all ranks advance it identically (the cut
// is a collective reduction, so the drift decision is globally
// consistent by construction), which keeps the cold/warm/hit decisions
// aligned without extra communication.
type Repartitioner struct {
	// DriftTol is the warm-quality tolerance: a warm repartition whose
	// cut exceeds DriftTol x the last accepted build's cut triggers an
	// immediate cold rebuild. 0 means the default 2.0 (adaptation
	// churn legitimately inflates the cut — random rewires land long
	// chords that any partition must pay for — so the bar for calling
	// it ladder drift is a doubling); negative disables the check
	// (warm runs are always accepted).
	DriftTol float64
	// FirstTouch optionally names a cheap method for the very first
	// build: partition.MethodStream runs the streaming partitioner
	// cold and lets the next changed-input Map refine that seed through
	// MULTILEVEL's RefineLadder — the full multilevel cold start is
	// never paid. Only valid ("" or STREAM) with a MULTILEVEL spec.
	FirstTouch partition.Method

	s          *Session
	spec       partition.Spec
	rec        registry.LoopRecord
	mapping    *Mapping
	nparts     int
	ladder     *partition.Ladder
	prevPart   []int
	baseCut    float64 // cut of the last accepted build (drift baseline)
	streamSeed bool    // prevPart is a STREAM first-touch awaiting RefineLadder
	stats      RepartitionerStats
}

// RepartitionerStats counts how each Map call was served.
type RepartitionerStats struct {
	// Hits: inputs unchanged, cached mapping returned with no work.
	Hits int
	// Cold: full partitioner runs (first build, non-multilevel method,
	// shape change, or drift re-colds — those also count in Recold).
	Cold int
	// Warm: incremental repartitions off the retained ladder that
	// passed the drift check.
	Warm int
	// Recold: warm attempts whose cut drifted past DriftTol and were
	// replaced by a cold rebuild in the same Map call.
	Recold int
	// Stream: STREAM first-touch builds (FirstTouch).
	Stream int
	// Seeded: MULTILEVEL refinements of a STREAM first-touch seed
	// through RefineLadder instead of a full cold run.
	Seeded int
}

// NewRepartitioner validates the spec eagerly — an unknown method or
// a bad option combination fails here, at the declaration site — and
// returns the handle. The graph-component check (LINK/GEOMETRY) runs
// per Map call, against the graph actually constructed.
func (s *Session) NewRepartitioner(spec partition.Spec) (*Repartitioner, error) {
	if _, err := spec.Resolve(); err != nil {
		return nil, err
	}
	return &Repartitioner{s: s, spec: spec}, nil
}

// Spec returns the partitioner spec the handle was created with.
func (rp *Repartitioner) Spec() partition.Spec { return rp.spec }

// Mapping returns the cached mapping (nil before the first Map).
func (rp *Repartitioner) Mapping() *Mapping { return rp.mapping }

// Stats returns the cumulative serve counts.
func (rp *Repartitioner) Stats() RepartitionerStats { return rp.stats }

// driftTol resolves the DriftTol default.
func (rp *Repartitioner) driftTol() float64 {
	if rp.DriftTol == 0 {
		return 2.0
	}
	return rp.DriftTol
}

// Invalidate drops the cached mapping, ladder and previous partition,
// forcing the next Map call to run cold.
func (rp *Repartitioner) Invalidate() {
	rp.mapping = nil
	rp.ladder = nil
	rp.prevPart = nil
	rp.baseCut = 0
	rp.streamSeed = false
}

// Map is the reuse-guarded Phase A (CONSTRUCT + SET BY PARTITIONING)
// with incremental warm restarts:
//
//   - unchanged inputs (the Section 3 reuse guard): the cached mapping is
//     returned without rebuilding the GeoCoL graph or repartitioning;
//   - changed inputs, MULTILEVEL with a retained ladder and matching
//     shape: the graph is rebuilt (TimerGraphGen) and warm-repartitioned
//     off the ladder (TimerPartition), re-running refinement only; a
//     warm cut past DriftTol x the last accepted cut re-colds on the
//     spot;
//   - otherwise: the graph is rebuilt and partitioned cold (or, on the
//     first build with FirstTouch=STREAM, streamed and later refined),
//     retaining a fresh ladder when the distributed multilevel path ran.
//
// Collective.
func (rp *Repartitioner) Map(n int, in GeoColInput, nparts int) (*Mapping, error) {
	inputDADs := in.dads()
	for _, d := range inputDADs {
		rp.s.Reg.Track(d)
	}
	rp.s.C.Words(2 * len(inputDADs)) // the guard itself is a few comparisons
	if rp.s.Reg.Check(&rp.rec, nil, inputDADs) && rp.mapping != nil &&
		rp.nparts == nparts && rp.mapping.Size() == n {
		rp.stats.Hits++
		return rp.mapping, nil
	}
	g := rp.s.Construct(n, in)
	m, err := rp.partition(g, nparts)
	if err != nil {
		return nil, err
	}
	rp.mapping = m
	rp.nparts = nparts
	rp.s.Reg.Record(&rp.rec, nil, inputDADs)
	return m, nil
}

// partition dispatches one changed-input build: warm off the retained
// ladder when possible (re-colding on drift), refine a streaming
// first-touch seed, or run cold.
func (rp *Repartitioner) partition(g *geocol.Graph, nparts int) (*Mapping, error) {
	p, err := rp.spec.ValidateFor(g, nparts)
	if err != nil {
		return nil, err
	}
	ml, isML := p.(partition.Multilevel)
	if rp.FirstTouch != "" {
		if rp.FirstTouch != partition.MethodStream {
			return nil, fmt.Errorf("core: FirstTouch %q is not supported (want STREAM)", rp.FirstTouch)
		}
		if !isML {
			return nil, fmt.Errorf("core: FirstTouch=STREAM requires a MULTILEVEL spec, have %s", rp.spec.Method)
		}
	}
	var part []int
	rp.s.timed(TimerPartition, func() {
		switch {
		case isML && rp.canWarm(g, nparts):
			part = ml.Repartition(rp.s.C, g, nparts, rp.ladder, rp.prevPart)
			cut := partition.Cut(rp.s.C, g, part)
			if tol := rp.driftTol(); tol > 0 && cut > rp.baseCut*tol {
				// The ladder's clustering no longer matches the mesh:
				// the warm result is measurably worse than the build it
				// came from. Rebuild now rather than serve it.
				part, rp.ladder = ml.PartitionLadder(rp.s.C, g, nparts)
				rp.baseCut = partition.Cut(rp.s.C, g, part)
				rp.stats.Recold++
				rp.stats.Cold++
			} else {
				rp.baseCut = cut
				rp.stats.Warm++
			}
		case isML && rp.canSeedRefine(g, nparts):
			part, rp.ladder = ml.RefineLadder(rp.s.C, g, nparts, rp.prevPart)
			rp.baseCut = partition.Cut(rp.s.C, g, part)
			rp.streamSeed = false
			rp.stats.Seeded++
		case isML && rp.FirstTouch == partition.MethodStream && rp.mapping == nil:
			part = partition.Streaming{Restreams: 1, Seed: rp.spec.Seed}.Partition(rp.s.C, g, nparts)
			rp.baseCut = partition.Cut(rp.s.C, g, part)
			rp.streamSeed = true
			rp.stats.Stream++
		case isML:
			part, rp.ladder = ml.PartitionLadder(rp.s.C, g, nparts)
			rp.baseCut = partition.Cut(rp.s.C, g, part)
			rp.stats.Cold++
		default:
			part = p.Partition(rp.s.C, g, nparts)
			rp.stats.Cold++
		}
	})
	if isML {
		rp.prevPart = part
	}
	return &Mapping{n: g.N, home: g.Home, part: part}, nil
}

// canWarm reports whether the retained ladder may serve g/nparts now.
// Reusable compares replicated shape fields, so the answer is globally
// consistent.
func (rp *Repartitioner) canWarm(g *geocol.Graph, nparts int) bool {
	return rp.ladder.Reusable(g, nparts) && len(rp.prevPart) == g.LocalN(rp.s.C.Rank())
}

// canSeedRefine reports whether prevPart is a STREAM first-touch seed
// that matches the current shape and may be refined into a ladder. The
// guard compares replicated values (mapping size, part count) so every
// rank takes the same branch.
func (rp *Repartitioner) canSeedRefine(g *geocol.Graph, nparts int) bool {
	return rp.streamSeed && rp.mapping != nil && rp.mapping.Size() == g.N &&
		rp.nparts == nparts && len(rp.prevPart) == g.LocalN(rp.s.C.Rank())
}
