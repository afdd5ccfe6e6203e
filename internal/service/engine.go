package service

import (
	"context"
	"fmt"
	"sync"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/partition"
)

// The engine is the service's compute kernel: one request becomes one
// SPMD run on the simulated machine — the same LINK-only
// geocol.Build → Spec.ValidateFor → Partition pipeline a Session
// drives, minus the array/loop machinery a pure partitioning service
// does not need. A cold result is a deterministic function of (graph
// content, spec, nparts, procs). A warm result also depends on the base
// it was warm-started from, and the cache serves whichever correct
// partition it holds for a content: a later upload of that content
// hits a warm answer. What makes the cache sound is that every reuse
// is of work done for exactly the request's content.

// computeResult is the engine's answer for one request.
type computeResult struct {
	part    []int // full part vector, global vertex order
	cut     int
	stats   machine.Stats
	ladders []*partition.Ladder // per-rank; nil unless a cold distributed MULTILEVEL ran
	wasWarm bool
}

// warmSource is the retained state a warm compute starts from: the
// base entry's per-rank ladders and its full part vector.
type warmSource struct {
	ladders []*partition.Ladder
	part    []int
}

// computePartition runs one partitioning request on a fresh machine.
// When warm is non-nil the MULTILEVEL ladder-reuse path runs
// (Multilevel.Repartition) against the retained per-rank ladders;
// otherwise the partitioner runs cold, retaining fresh ladders when
// the distributed multilevel path was taken. Cancelling ctx aborts
// the machine mid-run; every rank unwinds and the returned error
// wraps ctx.Err().
func computePartition(ctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error) {
	p, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	ml, isML := p.(partition.Multilevel)
	if warm != nil && !isML {
		warm = nil // only MULTILEVEL retains ladders
	}

	cfg := machine.IPSC860(procs)
	cfg.Seed = sp.Seed

	home := dist.NewBlock(gc.n, procs)
	edges := dist.NewBlock(len(gc.e1), procs)
	res := &computeResult{ladders: make([]*partition.Ladder, procs), wasWarm: warm != nil}
	var mu sync.Mutex

	st, err := machine.RunStats(ctx, cfg, func(c *machine.Ctx) {
		me := c.Rank()
		lo, hi := edges.Lo(me), edges.Hi(me)
		g := geocol.Build(c, gc.n, geocol.WithLink(gc.e1[lo:hi], gc.e2[lo:hi]))
		pp, err := sp.ValidateFor(g, nparts)
		if err != nil {
			// The server pre-validates; this is the belt-and-braces
			// path for capability drift, surfaced as a run error.
			panic(err)
		}
		var part []int
		switch {
		case warm != nil:
			part = ml.Repartition(c, g, nparts, warm.ladders[me], warm.part[home.Lo(me):home.Hi(me)])
		case isML:
			var ld *partition.Ladder
			part, ld = ml.PartitionLadder(c, g, nparts)
			res.ladders[me] = ld // per-rank slot; no two ranks share one
		default:
			part = pp.Partition(c, g, nparts)
		}
		// The home distribution is BLOCK, so the rank-order gather
		// concatenation is exactly the global part vector. Only rank 0
		// keeps it, and part is not written again.
		if full := c.GatherInts(0, part); me == 0 {
			mu.Lock()
			res.part = full
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	res.stats = st
	if warm != nil || !isML {
		res.ladders = nil
	} else {
		for _, ld := range res.ladders {
			if ld == nil { // serial path: no ladder to retain
				res.ladders = nil
				break
			}
		}
	}
	if len(res.part) != gc.n {
		return nil, fmt.Errorf("service: internal: partition length %d, want %d", len(res.part), gc.n)
	}
	res.cut = partition.EdgeListCut(gc.e1, gc.e2, res.part)
	return res, nil
}

// applyDelta materializes a churn request's graph: a copy of base
// with each rewire applied in order. Validation (edge index and
// endpoint ranges) happened before the copy.
func applyDelta(base *graphContent, delta []EdgeRewire) *graphContent {
	gc := &graphContent{
		n:  base.n,
		e1: base.e1, // endpoints 1 are never rewired; share
		e2: append([]int(nil), base.e2...),
	}
	for _, d := range delta {
		gc.e2[d.Edge] = d.NewEnd
	}
	return gc
}
