package core

import (
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
// not mistaken for ladder drift), and when the ratio exceeds driftTol
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
	s        *Session
	spec     partition.Spec
	rec      registry.LoopRecord
	mapping  *Mapping
	nparts   int
	ladder   *partition.Ladder
	prevPart []int
	baseCut  float64 // cut of the last accepted build (drift baseline)
	stats    RepartitionerStats
}

// driftTol is the warm-quality tolerance: a warm repartition whose cut
// exceeds driftTol x the last accepted build's cut triggers an
// immediate cold rebuild. Adaptation churn legitimately inflates the
// cut — random rewires land long chords that any partition must pay
// for — so the bar for calling it ladder drift is a doubling.
const driftTol = 2.0

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
	// Recold: warm attempts whose cut drifted past driftTol and were
	// replaced by a cold rebuild in the same Map call.
	Recold int
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

// Stats returns the cumulative serve counts.
func (rp *Repartitioner) Stats() RepartitionerStats { return rp.stats }

// Invalidate drops the cached mapping, ladder and previous partition,
// forcing the next Map call to run cold.
func (rp *Repartitioner) Invalidate() {
	rp.mapping = nil
	rp.ladder = nil
	rp.prevPart = nil
	rp.baseCut = 0
}

// Map is the reuse-guarded Phase A (CONSTRUCT + SET BY PARTITIONING)
// with incremental warm restarts:
//
//   - unchanged inputs (the Section 3 reuse guard): the cached mapping is
//     returned without rebuilding the GeoCoL graph or repartitioning;
//   - changed inputs, MULTILEVEL with a retained ladder and matching
//     shape: the graph is rebuilt (TimerGraphGen) and warm-repartitioned
//     off the ladder (TimerPartition), re-running refinement only; a
//     warm cut past driftTol x the last accepted cut re-colds on the
//     spot;
//   - otherwise: the graph is rebuilt and partitioned cold, retaining a
//     fresh ladder when the distributed multilevel path ran.
//
// Collective.
func (rp *Repartitioner) Map(n int, in GeoColInput, nparts int) (*Mapping, error) {
	inputDADs := in.dads()
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
// ladder when possible (re-colding on drift), or cold.
func (rp *Repartitioner) partition(g *geocol.Graph, nparts int) (*Mapping, error) {
	p, err := rp.spec.ValidateFor(g, nparts)
	if err != nil {
		return nil, err
	}
	ml, isML := p.(partition.Multilevel)
	var part []int
	rp.s.timed(TimerPartition, func() {
		switch {
		case isML && rp.canWarm(g, nparts):
			part = ml.Repartition(rp.s.C, g, nparts, rp.ladder, rp.prevPart)
			cut := partition.Cut(rp.s.C, g, part)
			if cut > rp.baseCut*driftTol {
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
