package machine

import (
	"slices"
	"sync"
)

// rendezvous implements an all-ranks exchange: every rank deposits one
// value, the last arriver takes the maximum clock, and every rank
// leaves with all the deposits and a synchronized clock. All
// collectives are built on it, which makes them deterministic
// regardless of goroutine scheduling.
type rendezvous struct {
	mu    sync.Mutex
	cond  *sync.Cond
	procs int

	gen   int64
	count int
	// vals holds the deposits of two generations, used alternately, so a
	// collective allocates no snapshot: generation g's deposits are next
	// overwritten in generation g+2, which no rank enters before every
	// rank has entered g+1 — after it finished reading g's (the rule a
	// rank's own two deposit slots follow, see exchangeRows).
	vals     [2][]deposit
	clocks   []float64
	snapTime float64
}

// deposit is what one rank leaves at a rendezvous. Scalars travel in
// fields of their own so that no collective boxes one; p carries
// everything else.
type deposit struct {
	i int
	f float64
	p any
}

func newRendezvous(procs int) *rendezvous {
	r := &rendezvous{
		procs:  procs,
		vals:   [2][]deposit{make([]deposit, procs), make([]deposit, procs)},
		clocks: make([]float64, procs),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// wake rouses every waiter so it re-checks for an abort. It takes the
// lock first: a waiter tests the abort flag and then waits under the
// same lock, so the broadcast cannot fall between the two and be lost.
func (r *rendezvous) wake() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cond.Broadcast()
}

// exchange deposits x for this rank and returns the slice of all ranks'
// deposits for the same generation. On return the rank's clock has been
// advanced to the maximum clock among participants (a synchronizing
// collective). The returned slice is shared between ranks and must be
// treated as read-only, and is good until this rank enters its next
// collective.
func (c *Ctx) exchange(x deposit) []deposit {
	c.checkAborted()
	r := c.m.rdv
	r.mu.Lock()
	gen := r.gen
	snap := r.vals[gen&1]
	snap[c.rank] = x
	r.clocks[c.rank] = c.clock
	r.count++
	if r.count == r.procs {
		maxT := r.clocks[0]
		for _, ct := range r.clocks[1:] {
			if ct > maxT {
				maxT = ct
			}
		}
		r.snapTime = maxT
		r.count = 0
		r.gen++
		r.cond.Broadcast()
	} else {
		for r.gen == gen {
			if ab, _ := c.m.abortedErr(); ab {
				r.mu.Unlock()
				panic(abortSignal{})
			}
			r.cond.Wait()
		}
	}
	t := r.snapTime
	r.mu.Unlock()
	if t > c.clock {
		c.clock = t
	}
	return snap
}

// collectiveCost charges the virtual clock for one synchronizing
// collective in which this rank contributes bytes of payload. The model
// is a log2(P)-depth combining tree: each level pays one message
// overhead pair plus hop latency, and the payload bytes are charged
// once.
func (c *Ctx) collectiveCost(bytes int) {
	cfg := c.m.cfg
	lv := float64(logceil(c.procs))
	c.clock += lv * (cfg.SendOverhead + cfg.RecvOverhead + cfg.HopLatency)
	c.clock += float64(bytes) * cfg.ByteTime
}

// Barrier synchronizes all ranks and their virtual clocks.
func (c *Ctx) Barrier() {
	c.exchange(deposit{})
	c.collectiveCost(0)
}

// AllReduceFloat combines one float64 per rank with op (applied in rank
// order, so op should be associative and commutative) and returns the
// result on every rank.
func (c *Ctx) AllReduceFloat(x float64, op func(a, b float64) float64) float64 {
	vals := c.exchange(deposit{f: x})
	acc := vals[0].f
	for _, v := range vals[1:] {
		acc = op(acc, v.f)
	}
	c.collectiveCost(8)
	return acc
}

// AllReduceInt combines one int per rank with op and returns the result
// on every rank.
func (c *Ctx) AllReduceInt(x int, op func(a, b int) int) int {
	vals := c.exchange(deposit{i: x})
	acc := vals[0].i
	for _, v := range vals[1:] {
		acc = op(acc, v.i)
	}
	c.collectiveCost(8)
	return acc
}

// SumInt returns the sum over ranks of x.
func (c *Ctx) SumInt(x int) int {
	return c.AllReduceInt(x, func(a, b int) int { return a + b })
}

// SumFloat returns the sum over ranks of x.
func (c *Ctx) SumFloat(x float64) float64 {
	return c.AllReduceFloat(x, func(a, b float64) float64 { return a + b })
}

// MaxInt returns the maximum over ranks of x.
func (c *Ctx) MaxInt(x int) int {
	return c.AllReduceInt(x, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
}

// MaxFloat returns the maximum over ranks of x.
func (c *Ctx) MaxFloat(x float64) float64 {
	return c.AllReduceFloat(x, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// MinFloat returns the minimum over ranks of x.
func (c *Ctx) MinFloat(x float64) float64 {
	return c.AllReduceFloat(x, func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	})
}

// AllGatherInt gathers one int per rank; result[r] is rank r's value.
func (c *Ctx) AllGatherInt(x int) []int {
	vals := c.exchange(deposit{i: x})
	out := make([]int, c.procs)
	for i, v := range vals {
		out[i] = v.i
	}
	c.collectiveCost(8 * c.procs)
	return out
}

// AllRanks is the root of a gather that delivers to every rank.
const AllRanks = -1

// gatherRows is the one all-gather body: every rank deposits xs, and
// each rank that concatenates — root alone, or every rank when root is
// AllRanks — gets the deposits joined in rank order, written into dst
// when it has the capacity. The other ranks get nil. Every rank is
// charged the combining tree over the whole payload either way: what a
// root-only gather saves is host memory, not modelled time.
//
// xs travels by ownership transfer under the rule of exchangeRows: it
// is deposited as it is and may be overwritten only after the sender
// has returned from a later collective. The readers copy it out before
// they return, on both backends.
func gatherRows[T int | float64](c *Ctx, slots *[2][]T, root int, xs, dst []T) []T {
	c.turn ^= 1
	slots[c.turn] = xs
	vals := c.exchange(deposit{p: &slots[c.turn]})
	slots[c.turn^1] = nil // sent before the previous collective: dead, let it go
	total := 0
	for _, v := range vals {
		total += len(*v.p.(*[]T))
	}
	var out []T
	if root == AllRanks || root == c.rank {
		out = dst[:0]
		if dst == nil || cap(dst) < total {
			out = make([]T, 0, total)
		}
		for _, v := range vals {
			out = append(out, *v.p.(*[]T)...)
		}
	}
	c.collectiveCost(8 * total)
	return out
}

// AllGatherInts concatenates each rank's slice in rank order and
// returns the concatenation on every rank (an allgatherv). xs is
// copied, so callers may reuse it.
func (c *Ctx) AllGatherInts(xs []int) []int {
	return gatherRows(c, &c.intRow, AllRanks, slices.Clone(xs), nil)
}

// AllGatherFloatsInto is AllGatherInts for float64 payloads, without
// the sender-side copy and delivering into dst when it has the
// capacity, for callers that can keep to the ownership rule (see
// gatherRows): xs must stay untouched until this rank has returned
// from a later collective.
func (c *Ctx) AllGatherFloatsInto(xs, dst []float64) []float64 {
	return gatherRows(c, &c.floatRow, AllRanks, xs, dst)
}

// GatherInts concatenates each rank's slice in rank order on root
// alone (on every rank when root is AllRanks); the other ranks get
// nil. Every rank is charged exactly what AllGatherInts charges it. xs
// is not copied: it must stay untouched until this rank has returned
// from a later collective (see gatherRows).
func (c *Ctx) GatherInts(root int, xs []int) []int {
	return gatherRows(c, &c.intRow, root, xs, nil)
}

// GatherFloats is GatherInts for float64 payloads.
func (c *Ctx) GatherFloats(root int, xs []float64) []float64 {
	return gatherRows(c, &c.floatRow, root, xs, nil)
}

// BroadcastInts sends root's slice to every rank.
func (c *Ctx) BroadcastInts(root int, xs []int) []int {
	var dep deposit
	if c.rank == root {
		cp := make([]int, len(xs))
		copy(cp, xs)
		dep.p = cp
	}
	out := c.exchange(dep)[root].p.([]int)
	if c.m.real {
		out = slices.Clone(out)
	}
	c.collectiveCost(8 * len(out))
	return out
}

// ShareInts hands root's slice to every rank without charging the
// virtual clock: no collectiveCost, and no sender-side copy. It exists
// for the replicated-cost convention, where the machine being modelled
// has every rank compute the same value from data it already holds —
// each rank still charges that computation itself (Flops/Words) — and
// the host computes it once on root instead of Procs times. xs is
// ignored on the other ranks.
//
// Like every collective it goes through the rendezvous, which advances
// each clock to the maximum among the ranks; callers that must leave
// the clocks exactly as replicated computation would (all of them) call
// it where the clocks are already equal, i.e. straight after a charged
// synchronizing collective.
//
// On the Simulated backend the result is root's memory, on root and on
// every other rank: read-only, and root may overwrite it only after it
// has returned from a later collective (the ExchangeInts rule). The
// Real backend hands each rank a clone.
func (c *Ctx) ShareInts(root int, xs []int) []int {
	var dep deposit
	if c.rank == root {
		dep.p = xs
	}
	out := c.exchange(dep)[root].p.([]int)
	if c.m.real {
		out = slices.Clone(out)
	}
	return out
}

// alltoallCost charges the cost of an irregular all-to-all in which
// this rank sends sendBytes across nSend non-empty messages and
// receives recvBytes across nRecv messages. The latency term uses the
// hypercube diameter as a conservative per-message distance.
func (c *Ctx) alltoallCost(nSend, sendBytes, nRecv, recvBytes int) {
	cfg := c.m.cfg
	diam := float64(logceil(c.procs))
	c.clock += float64(nSend)*cfg.SendOverhead + float64(nRecv)*cfg.RecvOverhead
	c.clock += float64(nSend+nRecv) / 2 * diam * cfg.HopLatency
	c.clock += float64(sendBytes+recvBytes) * cfg.ByteTime
}

// exchangeRows is the one all-to-all body: out[p] is the row addressed
// to rank p (nil or empty means no message) and the result's element
// [p] is the row rank p addressed to this rank, nil when there was
// none. The row headers land in in (one per rank) when it is non-nil,
// else in a fresh slice. slots are the rank-owned cells a header of
// this element type is deposited through (Ctx.intRows, Ctx.floatRows).
//
// Rows travel by ownership transfer — the sender's out and its rows
// are deposited as they are, with no sender-side copy — under one
// rule: a sent payload (out itself and every row) may be overwritten
// only after the sender has returned from a later collective.
// Symmetrically, on the Simulated backend a received row is the
// sender's memory: read-only, and good until the receiver enters its
// next collective unless the sender gives the payload away for good.
// The rule is sound because a rank leaves a collective only after all
// ranks have entered it: every receiver read its rows before entering
// the later collective (program order), its entry happens-before the
// sender's return (the rendezvous mutex), and the sender's return
// happens-before its overwrite (program order). The Real backend
// clones each row into receiver memory on delivery; the clone is such
// a read, so the same rule covers it.
//
// A sender that wants to reuse its buffers therefore keeps two and
// alternates: the one sent in call n is next written for call n+2,
// after the sender returned from call n+1. Two is the minimum — with
// one, the write for call n+1 would precede every later collective.
//
//chaos:hotpath
func exchangeRows[T int | float64](c *Ctx, slots *[2][][]T, out, in [][]T) [][]T {
	if len(out) != c.procs || (in != nil && len(in) != c.procs) {
		panic("machine: an all-to-all requires one slice per rank")
	}
	nSend, sendBytes := 0, 0
	for p, xs := range out {
		if p != c.rank && len(xs) > 0 {
			nSend++
			sendBytes += 8 * len(xs)
		}
	}
	c.turn ^= 1
	slots[c.turn] = out
	vals := c.exchange(deposit{p: &slots[c.turn]})
	slots[c.turn^1] = nil // sent before the previous collective: dead, let it go
	if in == nil {
		in = make([][]T, c.procs)
	}
	nRecv, recvBytes := 0, 0
	for p := range in {
		row := (*vals[p].p.(*[][]T))[c.rank]
		switch {
		case len(row) == 0:
			row = nil
		case c.m.real:
			row = slices.Clone(row)
		}
		in[p] = row
		if p != c.rank && len(row) > 0 {
			nRecv++
			recvBytes += 8 * len(row)
		}
	}
	c.alltoallCost(nSend, sendBytes, nRecv, recvBytes)
	return in
}

// copyRows returns a fresh header whose non-empty rows are copies of
// out's: the sender-side copy that lets AlltoAll callers reuse out.
func copyRows[T int | float64](out [][]T) [][]T {
	dep := make([][]T, len(out))
	for p, xs := range out {
		if len(xs) > 0 {
			dep[p] = slices.Clone(xs)
		}
	}
	return dep
}

// AlltoAllInts performs an irregular all-to-all: out[p] is the slice to
// deliver to rank p (nil or empty means no message). The result's
// element [p] is the slice rank p addressed to this rank. Payloads are
// copied, so callers may reuse out.
func (c *Ctx) AlltoAllInts(out [][]int) [][]int {
	return c.ExchangeInts(copyRows(out), nil)
}

// ExchangeInts is AlltoAllInts without the sender-side copy, for
// callers that can keep to the ownership rule (see exchangeRows): out
// and its rows must stay untouched until this rank has returned from a
// later collective, and on the Simulated backend the received rows are
// the senders' memory — read-only, and valid until this rank enters
// its next collective unless the protocol says the sender never reuses
// them. The received row headers are written to in (len Procs), which
// is returned; a nil in allocates them.
func (c *Ctx) ExchangeInts(out, in [][]int) [][]int {
	return exchangeRows(c, &c.intRows, out, in)
}

// ExchangeFloats is ExchangeInts for float64 payloads, under the same
// ownership rule.
func (c *Ctx) ExchangeFloats(out, in [][]float64) [][]float64 {
	return exchangeRows(c, &c.floatRows, out, in)
}
