package partition

import (
	"slices"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// This file is the level machinery of the distributed ladder pipeline
// (ladder.go): building a coarsening ladder over the simulated machine
// (pcoarsen.go + geocol.BuildCoarse), restricting a partition down it
// and projecting one back up, the per-level refinement budget, and the
// gathered k-way polish of the coarsest level. Matching, contraction,
// projection and refinement all do O(local graph) work per rank plus
// all-to-all exchanges, so — unlike the gather-everything serial path,
// whose replicated cost is flat in the machine size — the
// partitioner's virtual time falls as ranks are added from P=2 on,
// overtaking the serial path's by P=16 (see
// TestParallelMultilevelTimeScales). docs/REFINEMENT.md is the guided
// tour of the refinement stack.

// plevel is one level of a distributed coarsening ladder: the fine
// graph, its ghost-exchange pattern, the fine-to-coarse map, and the
// coarse graph it contracts to.
type plevel struct {
	fine   *geocol.Graph
	ge     *geocol.GhostExchange
	cmap   []int
	coarse *geocol.Graph
}

// buildLadder builds a distributed coarsening ladder from g down to
// serialTo vertices (or until matching stalls). seedBase salts the
// matching's tie-breaking (Multilevel.Seed). Collective.
func buildLadder(c *machine.Ctx, ar *arena, g *geocol.Graph, serialTo int, maxW float64, seedBase uint64) ([]plevel, *geocol.Graph) {
	var levels []plevel
	cur := g
	for cur.N > serialTo {
		ge := ar.ghost.NewGhostExchange(c, cur)
		seed := seedBase + uint64(len(levels))*0x2545f4914f6cdd1d + uint64(cur.N)
		match := distHeavyEdgeMatch(c, &ar.match, cur, ge, maxW, seed)
		cmap, coarseN := numberCoarse(c, &ar.match, cur, match)
		if coarseN*20 > cur.N*19 {
			break
		}
		next := ar.asm.BuildCoarse(c, cur, ge, cmap, coarseN)
		levels = append(levels, plevel{fine: cur, ge: ge, cmap: cmap, coarse: next})
		cur = next
	}
	return levels, cur
}

// refineLevel refines one uncoarsening level in place with the
// hill-climbing parallel FM (prefine.go). Interior levels get 3 passes
// — their boundary is re-refined at every finer level — while the
// finest level gets 4.
func (ml Multilevel) refineLevel(c *machine.Ctx, ar *arena, fine *geocol.Graph, ge *geocol.GhostExchange, part []int, nparts int, finest bool) {
	passes := 3
	if finest {
		passes = 4
	}
	parallelFM(c, &ar.fm, fine, ge, part, nparts, passes, ml.tol())
}

// serialKway gathers a sub-threshold graph and refines its partition
// with the serial k-way FM (kwayRefine) under the replicated-cost
// convention: the machine being modelled has every rank run the same
// refinement on its gathered copy, and every rank's clock is charged
// for it — the gather included. The host gathers onto rank 0 alone
// (GatherTo, GatherInts: every rank deposits and pays, only rank 0
// concatenates), runs the refinement there once, and hands the refined
// vector and its flop count to the others through the uncharged
// ShareInts — whose clock synchronization is a no-op here, because the
// GatherInts just before it left every clock equal. Each rank then
// keeps its home slice of the result; part, deposited uncopied, is not
// written before that, after the share. Collective.
func serialKway(c *machine.Ctx, ar *arena, g *geocol.Graph, part []int, nparts, passes int, tol float64) {
	f := g.GatherTo(c, 0)
	full := c.GatherInts(0, part)
	if c.Rank() == 0 {
		flops := kwayRefine(&ar.kway, f, full, nparts, passes, tol)
		full = append(full, int(flops))
	}
	full = c.ShareInts(0, full)
	c.Flops(full[len(full)-1])
	lo := g.Home.Lo(c.Rank())
	for l := range part {
		part[l] = full[lo+l]
	}
}

// restrictPart restricts a fine partition onto the coarse level of a
// ladder (Repartition's warm start): each rank routes one (coarse id,
// part) pair per home fine vertex to the coarse owner, and a cluster
// whose members hold different parts takes one member's. Collective.
// The per-rank routing buffers come from the arena's projScratch; the
// returned cpart is a fresh result and stays unpooled.
//
//chaos:hotpath
func restrictPart(c *machine.Ctx, s *projScratch, fine *geocol.Graph, cmap []int, coarseHome dist.BlockDist, finePart []int) []int {
	me, procs := c.Rank(), c.Procs()
	owner := scratch.Grow(&s.owner, len(cmap))
	cnt := s.rows.Counts(procs)
	for l, cv := range cmap {
		owner[l] = coarseHome.Owner(cv)
		cnt[owner[l]] += 2
	}
	out := s.rows.Lay()
	for l, cv := range cmap {
		out[owner[l]] = append(out[owner[l]], cv, finePart[l])
	}
	in := c.ExchangeInts(out, s.rows.In())
	lo2 := coarseHome.Lo(me)
	cpart := make([]int, coarseHome.LocalSize(me))
	for r := 0; r < procs; r++ {
		xs := in[r]
		for i := 0; i+1 < len(xs); i += 2 {
			cpart[xs[i]-lo2] = xs[i+1]
		}
	}
	c.Words(2 * len(cmap))
	return cpart
}

// serialTo returns the vertex count below which the ladder hands off
// to the serial stage: 8×CoarsenTo floored by ParallelThreshold. A
// graph below the threshold is, by the dispatch rule in Partition, too
// small to be worth distributing at all, so the ladder stops there and
// the serial solve (plus k-way polish) takes over — empirically the
// quality knee: handing off smaller graphs loses more cut in the
// solve's seed than any amount of distributed refinement wins back
// (docs/REFINEMENT.md records the measurements).
func (ml Multilevel) serialTo(nparts int) int {
	serialTo := 8 * ml.coarsenTo()
	if thr := ml.parallelThreshold(); serialTo < thr {
		serialTo = thr
	}
	if min := 8 * nparts; serialTo < min {
		serialTo = min
	}
	return serialTo
}

// projectPart projects a coarse part assignment onto the fine level:
// each rank requests the part of every coarse vertex its home vertices
// map to from the coarse vertex's block owner (one request/reply
// all-to-all pair), then reads the fine assignment off cmap. An
// IndexSet over the coarse ids yields need, the ascending distinct ids,
// and the resolved parts live in an array parallel to it, indexed by an
// id's rank in the set — O(local) words and 2 bits per coarse id,
// with no map, and all routing scratch is arena-owned. Collective.
//
//chaos:hotpath
func projectPart(c *machine.Ctx, s *projScratch, fine *geocol.Graph, cmap []int, coarseHome dist.BlockDist, coarsePart []int) []int {
	me, procs := c.Rank(), c.Procs()

	s.set.Reset(coarseHome.Size())
	for _, cv := range cmap {
		s.set.Mark(cv)
	}
	need := slices.AppendSeq(scratch.Grow(&s.need, s.set.Number())[:0], s.set.All())
	// need is sorted and block ownership is monotone in the id, so each
	// rank's request list is one consecutive run of need: the rows are
	// slices of it and go out uncopied. need and req are next written by
	// the next projectPart on this scratch, and the reply exchange below
	// is the later collective that frees them.
	req := scratch.Grow(&s.req, procs)
	clear(req)
	for i := 0; i < len(need); {
		r := coarseHome.Owner(need[i])
		j, hi := i+1, coarseHome.Hi(r)
		for j < len(need) && need[j] < hi {
			j++
		}
		req[r] = need[i:j]
		i = j
	}
	in := c.ExchangeInts(req, scratch.Grow(&s.in, procs))
	lo2 := coarseHome.Lo(me)
	cnt := s.rows.Counts(procs)
	for r := range cnt {
		cnt[r] = len(in[r])
	}
	rep := s.rows.Lay()
	for r := 0; r < procs; r++ {
		for _, cv := range in[r] {
			rep[r] = append(rep[r], coarsePart[cv-lo2])
		}
	}
	back := c.ExchangeInts(rep, s.rows.In())
	// The request lists were consecutive runs of need, in rank order:
	// the replies concatenate into an array parallel to need.
	val := scratch.Grow(&s.val, len(need))
	j := 0
	for r := 0; r < procs; r++ {
		j += copy(val[j:], back[r])
	}
	// part is returned to the caller (and carried across levels), so it
	// stays freshly allocated.
	part := make([]int, len(cmap))
	for l, cv := range cmap {
		part[l] = val[s.set.Rank(cv)]
	}
	c.Words(2 * len(cmap))
	return part
}
