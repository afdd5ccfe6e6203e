package partition

import (
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
	"chaos/internal/xrand"
)

// This file implements the distributed half of the multilevel
// coarsening: heavy-edge matching over the block-distributed GeoCoL
// graph, with the cross-rank handshake resolved by all-to-all exchanges,
// plus the global numbering of the resulting coarse vertices. Together
// with geocol.BuildCoarse this forms one level of the parallel
// coarsening ladder (pmultilevel.go) — the per-rank work is
// proportional to the rank's slice of the graph, which is what makes
// the partitioner's virtual time fall with the processor count.

// matchRounds is the number of handshake rounds one distributed
// matching runs; vertices still unmatched afterwards survive as
// singleton clusters (the next level retries them with fresh
// tie-breaking salt).
const matchRounds = 4

// distHeavyEdgeMatch performs distributed heavy-edge matching on the
// block-distributed graph. Each round, every unmatched home vertex
// selects its heaviest eligible edge — ties broken by a randomized but
// symmetric per-edge score (internal/xrand), so both endpoints rank
// their shared edge identically — and proposes along it. An edge is
// matched exactly when both endpoints select it (the locally-dominant
// edge criterion of Manne & Bisseling). The handshake needs no
// acknowledgment round: a proposal for edge (u,v) arriving at u's owner
// carries the fact "v selected u", and the owner knows locally whether
// u selected v, so both owners decide the same match from the crossing
// proposals. maxW caps the combined weight of a matched pair (<= 0
// disables the cap), keeping coarse vertices small enough for the
// coarsest-level balance slack, exactly like the serial matcher.
//
// Returns match[l] = global id of home-local vertex l's partner, or -1
// for vertices left as singletons. The returned slice is arena scratch:
// it stays valid only until the next matching on the same arena (its
// sole caller consumes it immediately via numberCoarse). Collective and
// deterministic: the rounds are bulk-synchronous and every tie-break is
// seeded.
//
//chaos:hotpath
func distHeavyEdgeMatch(c *machine.Ctx, s *matchScratch, g *geocol.Graph, ge *geocol.GhostExchange, maxW float64, seed uint64) []int {
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
	if g.HasLoad && maxW > 0 {
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
	owner := scratch.Grow(&s.owner, localN)

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
		// selections travel as (target, proposer) pairs, in rows counted
		// first and then filled (scratch.Rows), which go out uncopied.
		cnt := s.rows.Counts(procs)
		for l := 0; l < localN; l++ {
			t := target[l]
			if t < 0 {
				continue
			}
			if lo <= t && t < lo+localN {
				owner[l] = me
				if lo+l < t && target[t-lo] == lo+l {
					match[l], match[t-lo] = t, lo+l
					newly[l], newly[t-lo] = true, true
				}
			} else {
				owner[l] = g.Home.Owner(t)
				cnt[owner[l]] += 2
			}
		}
		props := s.rows.Lay()
		for l := 0; l < localN; l++ {
			if t := target[l]; t >= 0 && owner[l] != me {
				props[owner[l]] = append(props[owner[l]], t, lo+l)
			}
		}
		in := c.ExchangeInts(props, s.rows.In())
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

// edgeScore is the symmetric randomized tie-break: both endpoints of an
// edge compute the same score, so mutual selection is likely even when
// all edge weights tie (the finest, unit-weight level).
//
//chaos:hotpath
func edgeScore(u, v int, salt uint64) uint64 {
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	return xrand.Hash64(uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)<<1 ^ salt)
}

// numberCoarse assigns global coarse vertex ids to the clusters of a
// distributed matching: each pair is numbered by the owner of its
// smaller endpoint, singletons by their own owner, ids dense in rank
// order (an exclusive scan over per-rank cluster counts), and partner
// owners are notified of their vertices' ids. Returns the home-local
// fine-to-coarse map and the global coarse vertex count. Collective.
//
//chaos:hotpath
func numberCoarse(c *machine.Ctx, s *matchScratch, g *geocol.Graph, match []int) (cmap []int, coarseN int) {
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
	// A pair's smaller endpoint numbers it; when the partner lives on
	// another rank it is told by a (partner, id) pair, in rows counted
	// first and then filled (scratch.Rows), which go out uncopied.
	owner := scratch.Grow(&s.owner, localN)
	cnt := s.rows.Counts(procs)
	for l := 0; l < localN; l++ {
		if p := match[l]; lo+l < p {
			if owner[l] = me; p >= lo+localN {
				owner[l] = g.Home.Owner(p)
				cnt[owner[l]] += 2
			}
		}
	}
	notify := s.rows.Lay()
	for l := 0; l < localN; l++ {
		switch {
		case match[l] < 0:
			cmap[l] = next
			next++
		case lo+l < match[l]:
			cmap[l] = next
			if p := match[l]; owner[l] == me {
				cmap[p-lo] = next
			} else {
				notify[owner[l]] = append(notify[owner[l]], p, next)
			}
			next++
		}
	}
	in := c.ExchangeInts(notify, s.rows.In())
	for r := 0; r < procs; r++ {
		ids := in[r]
		for i := 0; i+1 < len(ids); i += 2 {
			cmap[ids[i]-lo] = ids[i+1]
		}
	}
	c.Words(2 * localN)
	return cmap, coarseN
}
