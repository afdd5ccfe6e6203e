package geocol

import (
	"slices"

	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// GhostExchange precomputes the boundary-exchange pattern of a
// block-distributed Graph: which of this rank's home vertices each
// neighboring rank reads (their ghosts of ours) and which off-rank
// vertices this rank reads (our ghosts). Because the CSR is symmetric —
// every undirected edge is stored by both endpoint owners — rank A
// needs a value for vertex u of rank B exactly when B needs to send it,
// so the pattern can be derived locally with no negotiation round. The
// Push methods then move one value per boundary vertex; distributed
// partitioners call them once per matching round or refinement sweep.
//
// The pattern is held entirely in flat index arrays — no maps. Loc
// localizes every CSR adjacency slot once at construction, so the hot
// loops of the distributed partitioners (matching rounds, FM sweeps,
// coarse assembly) resolve a neighbor's home-or-ghost location with a
// single array read instead of an ownership test plus a map lookup,
// and the incremental exchanges address ghost slots by position in the
// sender's send list, which the receiver converts to a slot with one
// addition (recvStart).
type GhostExchange struct {
	// IDs holds the sorted global ids of this rank's ghost (off-rank
	// neighbor) vertices; Push results are parallel to it.
	IDs []int
	// Loc localizes the owning graph's CSR: for adjacency slot k,
	// Loc[k] >= 0 is the home-local index of Adj[k] when this rank owns
	// it, and Loc[k] < 0 encodes ghost slot -(Loc[k]+1) otherwise.
	// Indexed exactly like g.Adj; hot loops read it instead of an
	// ownership test and an id search per edge.
	Loc []int
	// send[p] lists the home-local vertices rank p reads, ascending.
	// By CSR symmetry this is exactly the run of rank p's ghost ids
	// owned by this rank, in the same (ascending) order — which is what
	// lets the incremental exchanges ship send-list positions instead
	// of global ids.
	send [][]int
	// recvStart[p] is the offset in IDs where rank p's vertices begin
	// (IDs is sorted and the home distribution is BLOCK, so each rank's
	// ghosts form one contiguous run).
	recvStart []int
	// rows lays the send rows of every exchange. It belongs to the
	// GhostScratch the pattern was derived on — every level of a ladder
	// shares its arena's — and is scratch, not pattern: Bytes leaves it
	// out, as Ladder.Bytes leaves out the arena.
	rows *ghostRows
}

// ghostRows lays the send rows of the ghost exchanges, per element
// type; scratch.Rows states the ownership rule that lets one serve
// every exchange of every pattern derived on a GhostScratch.
type ghostRows struct {
	ints   scratch.Rows[int]
	floats scratch.Rows[float64]
}

// Bytes reports the heap footprint of the index arrays the exchange
// pattern retains, by capacity, in bytes; no exchange changes it. The
// service cache accounts retained ladders (which hold one exchange per
// level) against its memory cap with it.
func (ge *GhostExchange) Bytes() int {
	if ge == nil {
		return 0
	}
	b := 8 * (cap(ge.IDs) + cap(ge.Loc) + cap(ge.recvStart))
	for _, s := range ge.send {
		b += 8 * cap(s)
	}
	return b
}

// GhostScratch is the reusable scratch of NewGhostExchange: the set
// that numbers the remote endpoints in ascending order, the home rank
// of each, the per-rank counters, and the send rows of every pattern
// derived here. The zero value is ready; buffers grow to the largest
// graph seen, and apart from the send rows nothing a GhostExchange
// retains aliases them. Plain per-goroutine state, like
// CoarseAssembler: the partition arena keeps one and derives every
// level's pattern through it.
type GhostScratch struct {
	set scratch.IndexSet
	// own[slot] is the home rank of ghost IDs[slot].
	own []int
	// nsend counts each rank's send list; last[r] is the latest home
	// vertex put on rank r's send list.
	nsend, last []int
	// rows lays the send rows of every exchange of every pattern derived
	// here (GhostExchange.rows), made on first use.
	rows *ghostRows
}

// NewGhostExchange derives the exchange pattern of g; purely local. It
// is the one-shot form of GhostScratch.NewGhostExchange.
func NewGhostExchange(c *machine.Ctx, g *Graph) *GhostExchange {
	var s GhostScratch
	return s.NewGhostExchange(c, g)
}

// NewGhostExchange derives the exchange pattern of g on s's scratch;
// purely local. A first pass over the CSR localizes every home
// neighbor by a range test and marks every remote one in an IndexSet.
// Walking the set yields the sorted ghost ids; each one's home rank
// follows as the BLOCK ranges advance. A second pass gives every remote
// slot its ghost slot, the id's rank in the set, and counts the send
// lists; a third fills them, as slices of one exactly-sized array.
//
//chaos:hotpath
func (s *GhostScratch) NewGhostExchange(c *machine.Ctx, g *Graph) *GhostExchange {
	me, procs := c.Rank(), c.Procs()
	lo, hi := g.Home.Lo(me), g.Home.Hi(me)
	localN := hi - lo
	ge := &GhostExchange{Loc: make([]int, len(g.Adj))}

	s.set.Reset(g.N)
	for k, v := range g.Adj[:g.XAdj[localN]] {
		if lo <= v && v < hi {
			ge.Loc[k] = v - lo
		} else {
			s.set.Mark(v)
		}
	}
	ge.IDs = slices.AppendSeq(make([]int, 0, s.set.Number()), s.set.All())
	// IDs is sorted and the home distribution is BLOCK, so each rank's
	// ghosts form one contiguous run: the counts prefix-sum to offsets.
	own := scratch.Grow(&s.own, len(ge.IDs))
	ge.recvStart = make([]int, procs+1)
	r, rhi := 0, g.Home.Hi(0)
	for slot, v := range ge.IDs {
		for v >= rhi {
			r++
			rhi = g.Home.Hi(r)
		}
		own[slot] = r
		ge.recvStart[r+1]++
	}

	// Second pass: remote slots take their ghost slots, and the send
	// lists are counted. l ascends, so one remembered vertex per rank
	// dedups a send list.
	nsend, last := scratch.Grow(&s.nsend, procs+1), scratch.Grow(&s.last, procs)
	clear(nsend)
	for r := range last {
		last[r] = -1
	}
	for l := 0; l < localN; l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			if v := g.Adj[k]; v < lo || v >= hi {
				slot := s.set.Rank(v)
				ge.Loc[k] = -(slot + 1)
				if r := own[slot]; last[r] != l {
					last[r] = l
					nsend[r+1]++
				}
			}
		}
	}
	for r := 0; r < procs; r++ {
		ge.recvStart[r+1] += ge.recvStart[r]
		nsend[r+1] += nsend[r]
	}

	// Third pass: the send lists fill (nsend[r] is rank r's cursor).
	sends := make([]int, nsend[procs])
	ge.send = make([][]int, procs)
	for r := 0; r < procs; r++ {
		if nsend[r+1] > nsend[r] {
			// Clipped, so that Bytes counts every word of sends once.
			ge.send[r] = sends[nsend[r]:nsend[r+1]:nsend[r+1]]
		}
		last[r] = -1
	}
	for l := 0; l < localN; l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			if loc := ge.Loc[k]; loc < 0 {
				if r := own[-loc-1]; last[r] != l {
					last[r] = l
					sends[nsend[r]] = l
					nsend[r]++
				}
			}
		}
	}
	c.Words(localN + 2*len(ge.IDs))
	if s.rows == nil {
		s.rows = new(ghostRows)
	}
	ge.rows = s.rows
	return ge
}

// PushInts exchanges one int per boundary vertex: vals is indexed by
// home-local vertex, and the result is parallel to IDs. Collective.
func (ge *GhostExchange) PushInts(c *machine.Ctx, vals []int) []int {
	return ge.PushIntsInto(c, vals, nil)
}

// PushIntsInto is PushInts delivering into dst when it has the
// capacity, allocating a fresh slice only when it does not. Loops that
// push once per sweep or per ladder level — coarsening, V-cycle
// construction, FM refinement — hand back the previous push's slice to
// keep the per-sweep allocation count flat. dst's prior contents are
// ignored. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) PushIntsInto(c *machine.Ctx, vals []int, dst []int) []int {
	return push(c, ge, &ge.rows.ints, (*machine.Ctx).ExchangeInts, vals, dst)
}

// PushFloatsInto is PushIntsInto for float64 values: one value per
// boundary vertex, delivered into dst when it has the capacity (nil
// allocates); dst's prior contents are ignored. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) PushFloatsInto(c *machine.Ctx, vals []float64, dst []float64) []float64 {
	return push(c, ge, &ge.rows.floats, (*machine.Ctx).ExchangeFloats, vals, dst)
}

// push is the one dense exchange body: every send list's values leave
// in rows of x, and the result is parallel to IDs.
//
//chaos:hotpath
func push[T int | float64](c *machine.Ctx, ge *GhostExchange, x *scratch.Rows[T], exchange func(*machine.Ctx, [][]T, [][]T) [][]T, vals, dst []T) []T {
	count := x.Counts(len(ge.send))
	for r, ls := range ge.send {
		count[r] = len(ls)
	}
	out := x.Lay()
	for r, ls := range ge.send {
		row := out[r][:len(ls)]
		for i, l := range ls {
			row[i] = vals[l]
		}
		out[r] = row
	}
	in := exchange(c, out, x.In())
	var res []T
	if cap(dst) >= len(ge.IDs) {
		res = dst[:len(ge.IDs)]
	} else {
		//chaosvet:ignore hotalloc grows only when the caller's buffer is short; steady-state sweeps reuse it
		res = make([]T, len(ge.IDs))
	}
	for r, xs := range in {
		copy(res[ge.recvStart[r]:ge.recvStart[r+1]], xs)
	}
	return res
}

// UpdateIntsTouchedInto is the incremental form of PushInts: only home
// vertices with changed[l] set are exchanged (as explicit (position,
// value) pairs), and the receiver applies them in place to its ghost
// copy from an earlier PushInts. When few values change per round —
// refinement sweeps move a few percent of the boundary — this replaces
// a dense boundary exchange with a near-empty one, which matters
// because the dense exchange's byte volume is what keeps distributed
// coarsening from scaling on heavily interleaved vertex distributions.
//
// It returns the ghost slots whose value actually changed, in ascending
// slot order (nil when nothing changed), accumulated into dst
// (overwritten, reused when its capacity suffices; nil allocates), so a
// steady-state refinement sweep allocates nothing for the exchange.
// Receivers that maintain incremental state keyed on ghost values — the
// parallel FM refiner keeps per-vertex gain and boundary caches that
// are only invalidated by a neighbor's part changing — use the touched
// list to reprocess exactly the affected vertices instead of rescanning
// the whole ghost layer every round.
//
// The wire format is positional: each sender ships (index within its
// send list, value), and the receiver converts the index to a ghost
// slot with one addition — sender r's send list is exactly this rank's
// run of ghost ids owned by r, in the same ascending order. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) UpdateIntsTouchedInto(c *machine.Ctx, vals []int, changed []bool, ghost []int, dst []int) []int {
	out := ge.layUpd(changed, 2)
	for r, ls := range ge.send {
		for i, l := range ls {
			if changed[l] {
				out[r] = append(out[r], i, vals[l])
			}
		}
	}
	in := c.ExchangeInts(out, ge.rows.ints.In())
	// Senders are visited in rank order and each rank's positions
	// arrive ascending, so slots (contiguous per rank, ascending
	// within) come out sorted without an explicit sort.
	touched := dst[:0]
	for r, xs := range in {
		base := ge.recvStart[r]
		for i := 0; i+1 < len(xs); i += 2 {
			s := base + xs[i]
			if ghost[s] != xs[i+1] {
				ghost[s] = xs[i+1]
				//chaosvet:ignore hotalloc touched reuses dst and its growth is bounded by the ghost-layer size; steady-state sweeps reach fixed capacity
				touched = append(touched, s)
			}
		}
	}
	if len(touched) == 0 {
		return nil
	}
	return touched
}

// layUpd lays the send rows of an incremental exchange: rank r's row
// is empty with room for exactly per words for every changed vertex on
// its send list.
//
//chaos:hotpath
func (ge *GhostExchange) layUpd(changed []bool, per int) [][]int {
	cnt := ge.rows.ints.Counts(len(ge.send))
	for r, ls := range ge.send {
		for _, l := range ls {
			if changed[l] {
				cnt[r] += per
			}
		}
	}
	return ge.rows.ints.Lay()
}

// PushMarks is the one-bit form of UpdateIntsTouchedInto for monotone
// flags (a matched vertex never unmatches): only the send-list
// positions of newly marked home vertices travel, and the receiver sets
// the corresponding ghost flags to 1. Collective.
//
//chaos:hotpath
func (ge *GhostExchange) PushMarks(c *machine.Ctx, changed []bool, ghost []int) {
	out := ge.layUpd(changed, 1)
	for r, ls := range ge.send {
		for i, l := range ls {
			if changed[l] {
				out[r] = append(out[r], i)
			}
		}
	}
	in := c.ExchangeInts(out, ge.rows.ints.In())
	for r, xs := range in {
		base := ge.recvStart[r]
		for _, i := range xs {
			ghost[base+i] = 1
		}
	}
}
