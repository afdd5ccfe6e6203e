package partition

import (
	"math"

	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// This file is the hill-climbing parallel FM refiner of the distributed
// V-cycle (pmultilevel.go) — the ParMETIS-style move/commit/undo
// protocol run at every uncoarsening level. Each pass runs a fixed
// number of bulk-synchronous sub-iterations; per sub-iteration every
// rank
//
//  1. selects moves for its boundary vertices from per-rank gain
//     buckets, highest gain first, spending a bounded budget of
//     NEGATIVE-gain moves once the positive ones are exhausted (the
//     hill-climbing step plain greedy refinement cannot take),
//  2. applies the moves speculatively — concurrent moves on other
//     ranks may invalidate the computed gains — and
//  3. resolves the conflicts in one batch: the moved parts are
//     exchanged through geocol.GhostExchange (UpdateIntsTouchedInto), the
//     exact global cut is measured collectively, and the sub-iteration
//     boundary becomes a consistent global snapshot.
//
// Because every sub-iteration boundary is a snapshot whose exact cut
// all ranks agree on, rollback is sound and cheap: each rank records
// its local move log position at the best cut seen, and when a pass
// ends above that cut every rank undoes its own moves past the
// checkpoint, which restores precisely the best-seen global partition.
// Mispredicted speculative moves are therefore never committed — they
// either get repaired by later sub-iterations or rolled back.
//
// All local work after the first scan is proportional to what changed:
// every vertex's cut contribution and its best move under each
// direction rule live in one per-vertex slab (fmVertex, in the arena's
// fmScratch.vs), rewritten by one neighborhood scan (refresh) only for
// vertices adjacent to a move — local, or remote via the touched-slot
// list — so selecting moves reads the slab instead of rescanning the
// boundary. See docs/REFINEMENT.md for the protocol diagram and tuning
// guidance.

// fmSubIters is the number of bulk-synchronous sub-iterations per FM
// pass: three direction pairs under an alternating direction rule
// (even sub-iterations move toward higher part ids only, odd toward
// lower), which prevents neighboring vertices from swapping past each
// other inside one batch.
const fmSubIters = 6

// fmMove is one entry of the per-rank move log: enough to undo the
// move during rollback.
type fmMove struct {
	l    int32 // home-local vertex
	from int32 // part it left
}

// fmCand is one speculative move candidate in the gain buckets. An
// entry is a snapshot: when the vertex's cached gain changes a fresh
// entry is pushed and stale ones are detected on pop by comparing
// stamps.
type fmCand struct {
	l     int32
	to    int32
	gain  float64
	stamp int32
}

// fmVertex is parallelFM's cached state of one home vertex, rewritten
// by refresh whenever its neighborhood changes: the weighted cut of its
// edges and, per direction rule (0: toward higher part ids, 1: toward
// lower), the best move's target part and gain, to = -1 where the rule
// admits no adjacent part.
type fmVertex struct {
	cut  float64
	gain [2]float64
	to   [2]int32
}

// boundary reports whether v has a cross-part edge: every foreign
// adjacent part lies above or below v's own, so some direction has a
// move.
func (v *fmVertex) boundary() bool { return v.to[0] >= 0 || v.to[1] >= 0 }

// fmBuckets holds move candidates bucketed by integer-floored gain —
// the classic FM gain-bucket array. Coarse-graph edge weights are
// aggregated fine-edge multiplicities (integers), so the flooring is
// exact in practice; candidates within one bucket pop in push order,
// which is deterministic because selection scans vertices in ascending
// local id. Gains outside ±fmBucketSpan clamp to the end buckets.
//
// All the buckets live in one slab of entries in push order, each
// bucket a singly linked FIFO queue threaded through it: head and tail
// name a bucket's first and last entry and next, parallel to the slab,
// the entry queued behind each one, all as slab index + 1, so that zero
// means "none" and the zero value is a ready, empty structure. (next is
// an array of its own, and narrow, because pops chase it: threaded
// through the entries it cost the serial k-way kernel 7 %.) The slab
// only ever grows by append and reset keeps it, so a refiner that keeps
// its fmBuckets in the arena stops allocating once the slab has held
// its largest pass.
type fmBuckets struct {
	ents       []fmCand
	next       []int32 // next[i]: the entry queued behind entry i
	head, tail [2*fmBucketSpan + 1]int32
	hi         int // highest possibly-non-empty bucket index
}

const fmBucketSpan = 64

func fmBucketIndex(gain float64) int {
	b := int(math.Floor(gain))
	if b > fmBucketSpan {
		b = fmBucketSpan
	}
	if b < -fmBucketSpan {
		b = -fmBucketSpan
	}
	return b + fmBucketSpan
}

//chaos:hotpath
func (fb *fmBuckets) push(cand fmCand) {
	b := fmBucketIndex(cand.gain)
	fb.ents, fb.next = append(fb.ents, cand), append(fb.next, 0)
	at := int32(len(fb.ents))
	if t := fb.tail[b]; t > 0 {
		fb.next[t-1] = at
	} else {
		fb.head[b] = at
	}
	fb.tail[b] = at
	if b > fb.hi {
		fb.hi = b
	}
}

// pop returns the highest-gain candidate, the earliest pushed among
// equals, or false when empty.
//
//chaos:hotpath
func (fb *fmBuckets) pop() (fmCand, bool) {
	for fb.hi >= 0 {
		if at := fb.head[fb.hi]; at > 0 {
			if fb.head[fb.hi] = fb.next[at-1]; fb.head[fb.hi] == 0 {
				fb.tail[fb.hi] = 0
			}
			return fb.ents[at-1], true
		}
		fb.hi--
	}
	return fmCand{}, false
}

// reset empties the buckets keeping the slab, so repeated passes reuse
// steady-state capacity instead of reallocating.
func (fb *fmBuckets) reset() {
	fb.ents, fb.next = fb.ents[:0], fb.next[:0]
	fb.head, fb.tail = [2*fmBucketSpan + 1]int32{}, [2*fmBucketSpan + 1]int32{}
	fb.hi = 0
}

// kwayRefine is the serial k-way FM refiner: it refines every level of
// the serial V-cycle (solveSerial), and runs (replicated) on gathered
// coarse levels below ParallelThreshold, where each rank's slice is too
// small for distributed hill climbs to gain traction and the gather is
// cheap. It is klRefine generalized to k parts on the
// same fmBuckets structure the distributed refiner uses: pop the best
// move (any adjacent part, no direction rule — the serial view is
// exact), allow negative-gain moves, keep the best prefix, roll the
// tail back. Deterministic: every rank computing it on identical
// inputs produces the identical partition. Returns the flop count to
// charge.
//
//chaos:hotpath
func kwayRefine(s *kwayScratch, g *csr.Graph, part []int, nparts, passes int, tol float64) int64 {
	const plateau = 64
	n, xadj, adj := g.Len(), g.XAdj, g.Adj

	// All per-call state comes from the arena scratch. W and seen are
	// cleared here; locked is reset at every pass start; acc is guarded
	// by seen; stamp may hold arbitrary values (bucket entries only
	// compare stamps recorded in this call, and the buckets are reset).
	W := scratch.Grow(&s.W, nparts)
	seen := scratch.Grow(&s.seen, nparts)
	for q := 0; q < nparts; q++ {
		W[q], seen[q] = 0, false
	}
	totalW := 0.0
	for v := 0; v < n; v++ {
		W[part[v]] += g.Weight(v)
		totalW += g.Weight(v)
	}
	ideal := totalW / float64(nparts)
	maxA, minA := ideal*(1+tol), ideal*(1-tol)

	acc := scratch.Grow(&s.acc, nparts)
	touchedParts := s.touchedParts
	stamp := scratch.Grow(&s.stamp, n)
	fb := &s.fb
	locked := scratch.Grow(&s.locked, n)
	var scanned int64

	candidate := func(v int) (to int, gain float64, ok bool) {
		p := part[v]
		intW := 0.0
		touchedParts = touchedParts[:0]
		for k := xadj[v]; k < xadj[v+1]; k++ {
			q := part[adj[k]]
			wk := g.EdgeWeight(k)
			if q == p {
				intW += wk
				continue
			}
			if !seen[q] {
				seen[q] = true
				acc[q] = 0
				touchedParts = append(touchedParts, q)
			}
			acc[q] += wk
		}
		scanned += int64(xadj[v+1] - xadj[v])
		best, bestGain := -1, math.Inf(-1)
		for _, q := range touchedParts {
			seen[q] = false
			if gq := acc[q] - intW; gq > bestGain || (gq == bestGain && q < best) {
				best, bestGain = q, gq
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		return best, bestGain, true
	}

	log := s.log
	blocked := s.blocked
	for pass := 0; pass < passes; pass++ {
		fb.reset()
		for v := 0; v < n; v++ {
			locked[v] = false
			if to, gain, ok := candidate(v); ok {
				stamp[v]++
				fb.push(fmCand{l: int32(v), to: int32(to), gain: gain, stamp: stamp[v]})
			}
		}
		log = log[:0]
		blocked = blocked[:0]
		cum, bestCum, bestAt := 0.0, 0.0, 0
		for {
			cand, ok := fb.pop()
			if !ok {
				break
			}
			v, to := int(cand.l), int(cand.to)
			if cand.stamp != stamp[v] || locked[v] {
				continue
			}
			if cand.gain <= 0 && len(log)-bestAt >= plateau {
				break
			}
			p, wv := part[v], g.Weight(v)
			if W[to]+wv > maxA || W[p]-wv < minA {
				// Balance-blocked, not dead: re-offered after the next
				// committed move frees headroom (klRefine's stash).
				blocked = append(blocked, cand)
				continue
			}
			part[v] = to
			locked[v] = true
			W[to] += wv
			W[p] -= wv
			log = append(log, fmMove{l: cand.l, from: int32(p)})
			cum += cand.gain
			if cum > bestCum {
				bestCum, bestAt = cum, len(log)
			}
			for _, bc := range blocked {
				fb.push(bc)
			}
			blocked = blocked[:0]
			for k := xadj[v]; k < xadj[v+1]; k++ {
				u := adj[k]
				if locked[u] {
					continue
				}
				if to, gain, ok := candidate(u); ok {
					stamp[u]++
					fb.push(fmCand{l: int32(u), to: int32(to), gain: gain, stamp: stamp[u]})
				}
			}
		}
		for i := len(log) - 1; i >= bestAt; i-- {
			v, from := int(log[i].l), int(log[i].from)
			wv := g.Weight(v)
			W[part[v]] -= wv
			W[from] += wv
			part[v] = from
		}
		scanned += int64(64 * len(log))
		if bestCum <= 0 {
			break
		}
	}
	// Retain grown capacity for the next call on this arena.
	s.touchedParts, s.log, s.blocked = touchedParts, log, blocked
	return 2 * scanned
}

// parallelFM runs the hill-climbing distributed k-way FM refinement on
// a block-distributed graph whose part vector (indexed by home-local
// vertex) came from projecting a coarser level's partition. Balance is
// protected by budgets: part weights are re-synchronized at every
// sub-iteration boundary and each rank may spend at most 1/Procs of a
// part's remaining headroom inside one sub-iteration, so concurrent
// moves cannot overshoot the window no matter how the speculation
// resolves. Collective and deterministic.
//
//chaos:hotpath
func parallelFM(c *machine.Ctx, s *fmScratch, g *geocol.Graph, ge *geocol.GhostExchange, part []int, nparts, passes int, tol float64) {
	procs := c.Procs()
	localN := g.LocalN(c.Rank())

	// The ghost part copy lands in the arena buffer; ge.Loc resolves
	// every neighbor to part or ghostPart with one array read, so the
	// scan loops below carry no ownership test or id lookup.
	ghostPart := ge.PushIntsInto(c, part, s.ghostPart)
	s.ghostPart = ghostPart
	edgeW := func(k int) float64 {
		if g.EdgeW == nil {
			return 1
		}
		return g.EdgeW[k]
	}

	// ghostAdj (CSR: start/items) lists the home-local vertices adjacent
	// to each ghost slot — the reverse index that turns "ghost s
	// changed" into "rescan these vertices". Built once per refine call
	// in the arena by counting sort, O(local E), allocation-free at
	// steady state.
	start := scratch.Grow(&s.ghostAdjStart, len(ge.IDs)+1)
	for i := range start {
		start[i] = 0
	}
	for _, loc := range ge.Loc {
		if loc < 0 {
			start[-loc]++ // slot -loc-1 counts into start[slot+1]
		}
	}
	for i := 0; i < len(ge.IDs); i++ {
		start[i+1] += start[i]
	}
	items := scratch.Grow(&s.ghostAdj, start[len(ge.IDs)])
	for l := 0; l < localN; l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			if loc := ge.Loc[k]; loc < 0 {
				slot := -loc - 1
				items[start[slot]] = l
				start[slot]++
			}
		}
	}
	// The fill advanced each start[s] to the old start[s+1]; shift back.
	copy(start[1:], start)
	start[0] = 0
	ghostAdj := func(slot int) []int { return items[start[slot]:start[slot+1]] }

	// The per-vertex cache (fmVertex), refreshed only for vertices
	// marked dirty by a local or remote move in their neighborhood;
	// localCut is maintained incrementally from the cut deltas. refresh
	// accumulates the edge weight toward each adjacent part (acc, guarded
	// by seen, which is all false between scans) and picks each
	// direction's best part: highest gain, the lower part id on a tie.
	vs := scratch.Grow(&s.vs, localN)
	dirty := scratch.Grow(&s.dirty, localN)
	acc := scratch.Grow(&s.acc, nparts)
	seen := scratch.Grow(&s.seen, nparts)
	clear(dirty)
	clear(seen)
	touchedParts := s.touchedParts
	localCut := 0.0
	refresh := func(l int) {
		v := &vs[l]
		p := part[l]
		cut, intW := 0.0, 0.0
		touchedParts = touchedParts[:0]
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			q := 0
			if loc := ge.Loc[k]; loc >= 0 {
				q = part[loc]
			} else {
				q = ghostPart[-loc-1]
			}
			w := edgeW(k)
			if q == p {
				intW += w
				continue
			}
			cut += w
			if !seen[q] {
				seen[q] = true
				acc[q] = 0
				touchedParts = append(touchedParts, q)
			}
			acc[q] += w
		}
		localCut += cut - v.cut
		v.cut = cut
		v.to = [2]int32{-1, -1}
		v.gain = [2]float64{math.Inf(-1), math.Inf(-1)}
		for _, q := range touchedParts {
			seen[q] = false
			dir := 0
			if q < p {
				dir = 1
			}
			if gq := acc[q] - intW; gq > v.gain[dir] || (gq == v.gain[dir] && int32(q) < v.to[dir]) {
				v.gain[dir], v.to[dir] = gq, int32(q)
			}
		}
	}
	scanned := 0 // degree sum of looked-up vertices, for flop charges
	refreshAll := func() {
		localCut = 0
		for l := 0; l < localN; l++ {
			vs[l].cut = 0
			refresh(l)
		}
		scanned += len(g.Adj)
	}

	// syncState fuses the two collectives every sub-iteration boundary
	// needs — part weights and exact global cut — into one allgather of
	// nparts+1 floats per rank, summed per column in rank order. buf goes
	// out uncopied and is next written by the next syncState, which is
	// always reached through an incremental exchange of the moved parts
	// (or, on the next call, the dense push above): that is the later
	// collective the ownership rule asks for.
	W := scratch.Grow(&s.W, nparts)
	var cut float64
	buf := scratch.Grow(&s.buf, nparts+1)
	syncState := func() {
		for q := 0; q < nparts; q++ {
			buf[q] = 0
		}
		for l := 0; l < localN; l++ {
			buf[part[l]] += g.Weight(l)
		}
		buf[nparts] = localCut
		s.all = c.AllGatherFloatsInto(buf, s.all)
		for q := 0; q < nparts; q++ {
			W[q] = 0
		}
		cut = 0
		for i, v := range s.all {
			if q := i % (nparts + 1); q < nparts {
				W[q] += v
			} else {
				cut += v
			}
		}
		cut /= 2 // symmetric CSR: both owners counted each edge
	}

	refreshAll()
	syncState()
	totalW := 0.0
	for _, w := range W {
		totalW += w
	}
	ideal := totalW / float64(nparts)
	maxA, minA := ideal*(1+tol), ideal*(1-tol)

	// Per-move scratch, all arena-owned: movedFlag is cleared here,
	// locked is reset per pass, the budgets are overwritten every
	// sub-iteration, and stamp may hold arbitrary values (entries only
	// compare stamps recorded in this call).
	stamp := scratch.Grow(&s.stamp, localN)
	fb := &s.fb
	locked := scratch.Grow(&s.locked, localN)
	movedFlag := scratch.Grow(&s.movedFlag, localN)
	clear(movedFlag)
	log := s.log[:0]
	blocked := s.blocked
	addBudget := scratch.Grow(&s.addBudget, nparts)
	subBudget := scratch.Grow(&s.subBudget, nparts)

	// exchange ends a sub-iteration and the rollback: one batched
	// exchange of the moved parts, whose touched-slot list marks exactly
	// the vertices whose cached gains a remote move invalidated, then a
	// refresh of every dirty vertex and syncState. Its scans stay in
	// scanned for the caller's charge.
	exchange := func() {
		touched := ge.UpdateIntsTouchedInto(c, part, movedFlag, ghostPart, s.touched)
		if touched != nil {
			s.touched = touched
		}
		clear(movedFlag)
		for _, slot := range touched {
			for _, l := range ghostAdj(slot) {
				dirty[l] = true
			}
		}
		for l := 0; l < localN; l++ {
			if dirty[l] {
				refresh(l)
				dirty[l] = false
			}
		}
		syncState()
	}

	// offer pushes boundary vertex l's cached best move under direction
	// rule dir, if it has one, into the gain buckets. The modelled
	// machine is charged l's degree per lookup — the scan that computes
	// the move — although the host only reads the cache.
	offer := func(l, dir int) {
		v := &vs[l]
		if !v.boundary() {
			return
		}
		scanned += g.Degree(l)
		if v.to[dir] >= 0 {
			stamp[l]++
			fb.push(fmCand{l: int32(l), to: v.to[dir], gain: v.gain[dir], stamp: stamp[l]})
		}
	}

	for pass := 0; pass < passes; pass++ {
		startCut := cut
		bestCut := cut
		log = log[:0]
		bestLen := 0
		for l := range locked {
			locked[l] = false
		}
		passMoved, drySpell := 0, 0

		for it := 0; it < fmSubIters; it++ {
			dir := it & 1
			for q := 0; q < nparts; q++ {
				addBudget[q] = (maxA - W[q]) / float64(procs)
				subBudget[q] = (W[q] - minA) / float64(procs)
			}

			// Selection: seed the gain buckets from the current
			// boundary's cached moves. Ascending l keeps within-bucket
			// order (and so the whole pop sequence) deterministic.
			if s.audit != nil {
				s.audit(c, part, cut)
			}
			fb.reset()
			for l := 0; l < localN; l++ {
				if !locked[l] {
					offer(l, dir)
				}
			}

			// Apply: one serial-FM hill-climbing pass over the local
			// slice with the ghost layer frozen. Moves pop highest gain
			// first and may go NEGATIVE — the climb out of a local
			// minimum greedy refinement is stuck in — with the local
			// cumulative gain tracked serial-FM style (each committed
			// move refreshes its local neighbors' gains, so the running
			// total is exact in the local view). Before anything is
			// exchanged, the rank rolls its own batch back to the best
			// prefix it saw: only climbs that paid off locally ever
			// become visible to other ranks, so speculation noise does
			// not scale with the rank count. plateau bounds how far a
			// climb may chase a recovery before giving up.
			const plateau = 32
			moved := 0
			blocked = blocked[:0]
			cum, bestCum, bestAt := 0.0, 0.0, len(log)
			for {
				cand, ok := fb.pop()
				if !ok {
					break
				}
				l, to := int(cand.l), int(cand.to)
				if cand.stamp != stamp[l] || locked[l] {
					continue // superseded by a fresher entry
				}
				if cand.gain <= 0 && len(log)-bestAt >= plateau {
					break // climb gone cold past the best prefix
				}
				p, w := part[l], g.Weight(l)
				if addBudget[to] < w || subBudget[p] < w {
					// Balance-blocked, not dead: re-offered after the
					// next committed move (klRefine's stash).
					blocked = append(blocked, cand)
					continue
				}
				part[l] = to
				locked[l] = true
				movedFlag[l] = true
				dirty[l] = true
				log = append(log, fmMove{l: cand.l, from: int32(p)})
				// Net-inflow accounting: the budgets bound each rank's
				// NET weight movement per part, so an outflow refunds
				// the headroom it frees — climbs that shuffle weight
				// through a part are not charged as if they parked it.
				addBudget[to] -= w
				addBudget[p] += w
				subBudget[p] -= w
				subBudget[to] += w
				moved++
				cum += cand.gain
				if cum > bestCum {
					bestCum, bestAt = cum, len(log)
				}
				for _, bc := range blocked {
					fb.push(bc)
				}
				blocked = blocked[:0]
				// Local neighbors see the move immediately: their
				// cached state is refreshed and fresh bucket entries
				// supersede the stale ones (serial-FM style). Remote
				// neighbors find out at the sub-iteration boundary.
				for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
					ul := ge.Loc[k]
					if ul < 0 {
						continue
					}
					dirty[ul] = true
					if locked[ul] {
						continue
					}
					refresh(ul)
					dirty[ul] = false
					offer(ul, dir)
				}
			}
			// Local rollback to the batch's best prefix: undone moves
			// never leave the rank. The vertices stay locked for the
			// rest of the pass (their climb did not pay off), and their
			// neighborhoods are re-marked dirty for the refresh below.
			for i := len(log) - 1; i >= bestAt; i-- {
				l := int(log[i].l)
				part[l] = int(log[i].from)
				movedFlag[l] = false
				dirty[l] = true
				moved--
				for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
					if ul := ge.Loc[k]; ul >= 0 {
						dirty[ul] = true
					}
				}
			}
			log = log[:bestAt]

			// Conflict resolution.
			exchange()
			c.Flops(2*scanned + localN)
			scanned = 0

			if cut < bestCut {
				bestCut = cut
				bestLen = len(log)
			}
			movedG := c.SumInt(moved)
			passMoved += movedG
			if movedG == 0 {
				if drySpell++; drySpell >= 2 {
					break // both directions dry: the pass converged
				}
			} else {
				drySpell = 0
			}
		}

		// Rollback: every sub-iteration boundary was a consistent global
		// snapshot, so undoing each rank's moves past its checkpoint
		// restores exactly the best-seen partition and cut. The decision
		// compares collective results (identical on every rank), so all
		// ranks enter the exchange together — a rank whose log is
		// already at its checkpoint just contributes an empty batch.
		if cut > bestCut {
			for i := len(log) - 1; i >= bestLen; i-- {
				l := int(log[i].l)
				part[l] = int(log[i].from)
				movedFlag[l] = true
				dirty[l] = true
				// Same-rank neighbors cached the undone move in their
				// fmVertex; re-mark them exactly as the local batch
				// rollback does, or later passes measure a stale cut.
				for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
					if ul := ge.Loc[k]; ul >= 0 {
						dirty[ul] = true
					}
				}
			}
			exchange()
			c.Flops(2 * scanned)
			scanned = 0
		}

		if passMoved == 0 || bestCut >= startCut {
			break // no progress left for another pass to find
		}
	}
	if s.audit != nil {
		s.audit(c, part, cut)
	}
	// Retain grown capacity for the next call on this arena.
	s.touchedParts, s.log, s.blocked = touchedParts, log, blocked
}
