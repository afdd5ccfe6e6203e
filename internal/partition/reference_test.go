package partition

import (
	"slices"
	"sort"

	"chaos/internal/csr"
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
	"chaos/internal/xrand"
)

// This file keeps, word for word, the bodies of the parent commit that
// the count → prefix-sum → fill routing, the arena-stamped induce, the
// pooled gain buckets and the computed-once k-way polish replaced, as
// oracles for the differential tests in reference_diff_test.go. Only
// the names changed (ref prefix) so they can sit beside their
// successors.

type refMatchScratch struct {
	homeW        []float64
	ghostW       []float64
	match        []int
	ghostMatched []int
	newly        []bool
	target       []int
	props        [][]int
	notify       [][]int
}

type refProjScratch struct {
	need []int
	val  []int
	req  [][]int
	rep  [][]int
	out  [][]int
}

func refGrowRanks(s *[][]int, procs int) [][]int {
	if cap(*s) < procs {
		*s = make([][]int, procs)
	}
	*s = (*s)[:procs]
	for r := range *s {
		(*s)[r] = (*s)[r][:0]
	}
	return *s
}

func refDistHeavyEdgeMatch(c *machine.Ctx, s *refMatchScratch, g *geocol.Graph, ge *geocol.GhostExchange, maxW float64, seed uint64) []int {
	me := c.Rank()
	procs := c.Procs()
	lo := g.Home.Lo(me)
	localN := g.LocalN(me)

	homeW := scratch.Grow(&s.homeW, localN)
	for l := range homeW {
		homeW[l] = g.Weight(l)
	}
	// Unit-weight levels (the finest, unless LOAD was given) never hit
	// the weight cap, so their ghost weights need not travel at all.
	var ghostW []float64
	if g.Weights != nil && maxW > 0 {
		ghostW = ge.PushFloatsInto(c, homeW, s.ghostW)
		s.ghostW = ghostW
	}

	match := scratch.Grow(&s.match, localN)
	for l := range match {
		match[l] = -1
	}
	// Matched flags are monotone, so rounds after the first exchange
	// only the ids newly matched in the previous round (PushMarks): the
	// first round has nothing to push, and the total flag traffic of a
	// matching is one boundary's worth instead of one per round.
	ghostMatched := scratch.Grow(&s.ghostMatched, len(ge.IDs))
	newly := scratch.Grow(&s.newly, localN)
	for l := 0; l < localN; l++ {
		newly[l] = false
	}
	for i := range ghostMatched {
		ghostMatched[i] = 0
	}
	target := scratch.Grow(&s.target, localN)
	// Proposal scratch, reused across rounds and matchings ([:0] reset
	// keeps the steady-state capacity; AlltoAll copies payloads before
	// delivery).
	props := refGrowRanks(&s.props, procs)

	for round := 0; round < matchRounds; round++ {
		if round > 0 {
			ge.PushMarks(c, newly, ghostMatched)
			for l := range newly {
				newly[l] = false
			}
		}
		salt := xrand.Hash64(seed + uint64(round)*0x9e3779b97f4a7c15)

		// Selection: heaviest eligible edge, ties by symmetric score.
		for l := 0; l < localN; l++ {
			target[l] = -1
			if match[l] >= 0 {
				continue
			}
			v := lo + l
			best := -1
			bestW := -1.0
			bestS := uint64(0)
			for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
				u := g.Adj[k]
				// Loc resolves u to home index or ghost slot with one
				// read — no ownership test, no id lookup.
				loc := ge.Loc[k]
				var uw float64
				var uTaken bool
				if loc >= 0 {
					uTaken = match[loc] >= 0
					uw = homeW[loc]
				} else {
					slot := -loc - 1
					uTaken = ghostMatched[slot] != 0
					if ghostW != nil {
						uw = ghostW[slot]
					} else {
						uw = 1
					}
				}
				if uTaken {
					continue
				}
				if maxW > 0 && homeW[l]+uw > maxW {
					continue
				}
				ew := 1.0
				if g.EdgeW != nil {
					ew = g.EdgeW[k]
				}
				s := edgeScore(v, u, salt)
				if ew > bestW || (ew == bestW && (s > bestS || (s == bestS && u < best))) {
					best, bestW, bestS = u, ew, s
				}
			}
			target[l] = best
		}

		// Same-rank mutual selections match immediately; cross-rank
		// selections travel as (target, proposer) pairs.
		for r := range props {
			props[r] = props[r][:0]
		}
		for l := 0; l < localN; l++ {
			t := target[l]
			if t < 0 {
				continue
			}
			if g.Home.Owner(t) == me {
				if lo+l < t && target[t-lo] == lo+l {
					match[l], match[t-lo] = t, lo+l
					newly[l], newly[t-lo] = true, true
				}
			} else {
				props[g.Home.Owner(t)] = append(props[g.Home.Owner(t)], t, lo+l)
			}
		}
		in := c.AlltoAllInts(props)
		for r := 0; r < procs; r++ {
			pr := in[r]
			for i := 0; i+1 < len(pr); i += 2 {
				u, v := pr[i], pr[i+1] // v selected our u
				if match[u-lo] < 0 && target[u-lo] == v {
					match[u-lo] = v
					newly[u-lo] = true
				}
			}
		}
		c.Flops(2*len(g.Adj) + localN)
	}
	return match
}

func refNumberCoarse(c *machine.Ctx, s *refMatchScratch, g *geocol.Graph, match []int) (cmap []int, coarseN int) {
	me := c.Rank()
	procs := c.Procs()
	lo := g.Home.Lo(me)
	localN := g.LocalN(me)

	mine := 0
	for l := 0; l < localN; l++ {
		if match[l] < 0 || lo+l < match[l] {
			mine++
		}
	}
	counts := c.AllGatherInt(mine)
	next := 0
	for r := 0; r < me; r++ {
		next += counts[r]
	}
	for _, n := range counts {
		coarseN += n
	}

	// cmap is retained by the caller's ladder; only the notification
	// routing is arena scratch.
	cmap = make([]int, localN)
	notify := refGrowRanks(&s.notify, procs)
	for l := 0; l < localN; l++ {
		switch {
		case match[l] < 0:
			cmap[l] = next
			next++
		case lo+l < match[l]:
			cmap[l] = next
			if p := match[l]; g.Home.Owner(p) == me {
				cmap[p-lo] = next
			} else {
				r := g.Home.Owner(p)
				notify[r] = append(notify[r], p, next)
			}
			next++
		}
	}
	in := c.AlltoAllInts(notify)
	for r := 0; r < procs; r++ {
		ids := in[r]
		for i := 0; i+1 < len(ids); i += 2 {
			cmap[ids[i]-lo] = ids[i+1]
		}
	}
	c.Words(2 * localN)
	return cmap, coarseN
}

func refRestrictPart(c *machine.Ctx, s *refProjScratch, fine *geocol.Graph, cmap []int, coarseHome dist.BlockDist, finePart []int) []int {
	me, procs := c.Rank(), c.Procs()
	out := refGrowRanks(&s.out, procs)
	for l, cv := range cmap {
		r := coarseHome.Owner(cv)
		out[r] = append(out[r], cv, finePart[l])
	}
	in := c.AlltoAllInts(out)
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

func refProjectPart(c *machine.Ctx, s *refProjScratch, fine *geocol.Graph, cmap []int, coarseHome dist.BlockDist, coarsePart []int) []int {
	me, procs := c.Rank(), c.Procs()

	need := append(s.need[:0], cmap...)
	sort.Ints(need)
	need = slices.Compact(need)
	s.need = need
	req := refGrowRanks(&s.req, procs)
	for _, cv := range need {
		r := coarseHome.Owner(cv)
		req[r] = append(req[r], cv)
	}
	in := c.AlltoAllInts(req)
	lo2 := coarseHome.Lo(me)
	rep := refGrowRanks(&s.rep, procs)
	for r := 0; r < procs; r++ {
		for _, cv := range in[r] {
			rep[r] = append(rep[r], coarsePart[cv-lo2])
		}
	}
	back := c.AlltoAllInts(rep)
	// need is sorted and block ownership is monotone in the id, so the
	// per-rank request lists are consecutive runs of need: the replies
	// concatenate into an array parallel to need.
	val := scratch.Grow(&s.val, len(need))
	j := 0
	for r := 0; r < procs; r++ {
		j += copy(val[j:], back[r])
	}
	// part is returned to the caller (and carried across levels), so it
	// stays freshly allocated.
	part := make([]int, len(cmap))
	for l, cv := range cmap {
		part[l] = val[sort.SearchInts(need, cv)]
	}
	c.Words(2 * len(cmap))
	return part
}

func refSerialKway(c *machine.Ctx, ar *arena, g *geocol.Graph, part []int, nparts, passes int, tol float64) {
	f := g.Gather(c)
	full := c.AllGatherInts(part)
	c.Flops(int(kwayRefine(&ar.kway, f, full, nparts, passes, tol)))
	lo := g.Home.Lo(c.Rank())
	for l := range part {
		part[l] = full[lo+l]
	}
}

func refInduce(f *csr.Graph, verts []int) *subgraph {
	n := len(verts)
	sg := &subgraph{orig: append([]int(nil), verts...)}
	local := make([]int, f.Len())
	for i := range local {
		local[i] = -1
	}
	for i, v := range verts {
		local[v] = i
	}
	sg.XAdj = make([]int, n+1)
	sg.Weights = make([]float64, n)
	for i, v := range verts {
		sg.Weights[i] = f.Weight(v)
		for k := f.XAdj[v]; k < f.XAdj[v+1]; k++ {
			if j := local[f.Adj[k]]; j >= 0 {
				sg.Adj = append(sg.Adj, j)
				if f.EdgeW != nil {
					sg.EdgeW = append(sg.EdgeW, f.EdgeW[k])
				}
			}
		}
		sg.XAdj[i+1] = len(sg.Adj)
	}
	sg.flops += int64(len(sg.Adj) + n)
	return sg
}
