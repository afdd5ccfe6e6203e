// Package schedule implements CHAOS/PARTI communication schedules: the
// output of the paper's Phase D inspector. Given the set of global
// indices an executor loop will reference, BuildGather translates them
// to (owner, local) pairs through a Resolver, deduplicates off-processor
// references, assigns each unique off-processor element a slot in a
// local ghost ("buffer") area, and exchanges request lists so every
// rank knows which of its elements to ship where. The resulting
// Schedule drives the executor-phase Gather and ScatterAdd data
// movements.
package schedule

import (
	"cmp"
	"fmt"
	"slices"

	"chaos/internal/machine"
	"chaos/internal/scratch"
	"chaos/internal/slottab"
	"chaos/internal/ttable"
)

// Schedule is one rank's half of a communication pattern between the
// owners of a distributed array and the consumers of copies of its
// elements. It is symmetric: Gather moves owner→consumer, ScatterAdd
// moves consumer→owner.
type Schedule struct {
	procs int
	// sendLocal[p] lists local indices of elements this rank owns
	// that rank p holds ghost copies of.
	sendLocal [][]int
	// recvGhost[p] lists the ghost slots on this rank filled by
	// values owned by rank p, in the order rank p sends them.
	recvGhost [][]int
	// nGhost is the size of the ghost buffer.
	nGhost int

	// The send rows of the data movements.
	floats scratch.Rows[float64]

	// The build's own storage, kept for the schedule that is built in
	// this one's place (Builder.BuildGather's old): slots backs the rows
	// of recvGhost, and reqs lays the request lists, which the build
	// gives away to the peers.
	slots []int
	reqs  scratch.Rows[int]
}

// Options is the inspector's option set. It has no settings: the
// paper's inspector always eliminates duplicate references. Callers,
// the repository benchmark among them, pass Options{}.
type Options struct{}

// NGhost returns the number of ghost (off-processor copy) slots the
// schedule requires. Executors index ghost buffers of exactly this
// length.
func (s *Schedule) NGhost() int { return s.nGhost }

// SendCount returns the total number of owned elements this rank ships
// per Gather.
func (s *Schedule) SendCount() int {
	n := 0
	for _, l := range s.sendLocal {
		n += len(l)
	}
	return n
}

// Messages returns the number of distinct peers this rank exchanges
// data with per Gather (send side, recv side).
func (s *Schedule) Messages() (nsend, nrecv int) {
	for _, l := range s.sendLocal {
		if len(l) > 0 {
			nsend++
		}
	}
	for _, l := range s.recvGhost {
		if len(l) > 0 {
			nrecv++
		}
	}
	return
}

// Builder is the inspector's grow-only workspace: the translation
// table's dereference buffers, the list of off-processor references
// and the open-addressing table that deduplicates them. The zero value
// is ready; buffers grow to the largest reference list seen and are
// reused by every later build, so one Builder shared by all the builds
// of an inspection makes their scratch a one-time cost. Nothing a build returns points into
// the Builder.
type Builder struct {
	tt ttable.Workspace
	// offPos lists the positions of the off-processor references.
	offPos []int
	// ghosts holds one entry per distinct off-processor reference, in
	// ghost-slot order.
	ghosts []ghostRef
	seen   slottab.Table
}

// ghostRef is one off-processor element and where it lives.
type ghostRef struct{ owner, global, local int }

// BuildGather runs the inspector for one data array. res resolves the
// array's global index space; myLocalSize is the length of the calling
// rank's local section; globals lists every global index the local
// iterations reference (duplicates allowed, order preserved).
//
// It returns the communication schedule and a reference vector ref with
// len(ref) == len(globals): ref[i] < myLocalSize means globals[i] is
// locally owned at that local index; otherwise globals[i] is an
// off-processor element available in ghost slot ref[i]-myLocalSize
// after a Gather. This is the paper's "information that associates
// off-processor data copies with on-processor buffer locations".
//
// Collective: all ranks must call BuildGather together.
func BuildGather(c *machine.Ctx, res ttable.Resolver, myLocalSize int, globals []int, opt Options) (*Schedule, []int) {
	var b Builder
	return b.BuildGather(c, res, myLocalSize, globals, opt, nil, nil)
}

// BuildGather is the package-level BuildGather on b's scratch, for an
// inspector that replaces what an earlier build returned: the schedule
// is built into old (nil builds a fresh one) and the reference vector
// into dst's storage when that is large enough. Both are dead after the
// call either way, and a rebuilt schedule is equal, field by field, to a
// fresh one.
//
// Passing old asserts that its counterparts are dead on every rank: no
// rank runs a data movement on the old schedule once any rank has
// started the rebuild, and every rank passes the schedule of the same
// earlier build. old's headers, slot array and send rows are this
// rank's own and are simply refilled. Its request lists are not: they
// went to the peers by ownership transfer, and the peers' send lists
// are that memory, read by every Gather and Scatter until the peer's own rebuild replaces them
// in this build's exchange. They are laid by a scratch.Rows, whose
// rule covers exactly such a reader: the lists filled here were last
// read before the peers entered the previous build's exchange, which
// this rank has returned from.
//
// Off-processor references are collected in one pass, deduplicated
// through the open-addressing table, and only the distinct ones are
// sorted into ghost-slot order (owner, global); the per-owner request
// and slot lists are rows of two flat arrays.
//
// Collective.
//
//chaos:hotpath
func (b *Builder) BuildGather(c *machine.Ctx, res ttable.Resolver, myLocalSize int, globals []int, opt Options, old *Schedule, dst []int) (*Schedule, []int) {
	p := c.Procs()
	me := c.Rank()
	owners, locals := res.ResolveInto(c, &b.tt, globals)

	ref := scratch.Grow(&dst, len(globals))

	// Local references are final; off-processor ones are set aside,
	// counted first so their lists are sized once.
	nOff := 0
	for _, o := range owners {
		if o != me {
			nOff++
		}
	}
	offPos := scratch.Grow(&b.offPos, nOff)[:0]
	for i, o := range owners {
		if o == me {
			ref[i] = locals[i]
		} else {
			offPos = append(offPos, i)
		}
	}

	// The table keeps the first reference to each element; slot order
	// is (owner, global) sorted for determinism and contiguous per-peer
	// receive buffers, and the table then maps an element to its slot.
	ghosts := scratch.Grow(&b.ghosts, nOff)[:0]
	b.seen.Reset(nOff)
	for _, i := range offPos {
		if e := b.seen.Entry(globals[i]); e.Key1 == 0 {
			e.Key1 = globals[i] + 1
			ghosts = append(ghosts, ghostRef{owners[i], globals[i], locals[i]})
		}
	}
	slices.SortFunc(ghosts, cmpGhostRef)
	for slot, g := range ghosts {
		b.seen.Entry(g.global).Val = slot
	}
	for _, i := range offPos {
		ref[i] = myLocalSize + b.seen.Entry(globals[i]).Val
	}
	c.Words(2 * len(globals)) // hash probes + owner tests
	c.Words(2 * len(ghosts))  // sort traffic (approximate)

	// Per-owner request lists (the owner's local indices we need) and
	// ghost-slot lists, both in slot order: a stable counting sort of
	// the ghosts by owner into two flat arrays.
	s := old
	if s == nil {
		s = &Schedule{}
	}
	s.procs, s.nGhost = p, len(ghosts)
	count := s.reqs.Counts(p)
	for _, g := range ghosts {
		count[g.owner]++
	}
	requests, recvGhost := s.reqs.Lay(), scratch.Grow(&s.recvGhost, p)
	slots, off := scratch.Grow(&s.slots, len(ghosts)), 0
	for o, k := range count {
		recvGhost[o] = nil
		if k > 0 {
			recvGhost[o] = slots[off : off : off+k]
		}
		off += k
	}
	for slot, g := range ghosts {
		requests[g.owner] = append(requests[g.owner], g.local)
		recvGhost[g.owner] = append(recvGhost[g.owner], slot)
	}
	c.Words(2 * len(globals))

	// Exchange request lists: what I ask of p becomes p's send list
	// to me.
	s.sendLocal = c.ExchangeInts(requests, scratch.Grow(&s.sendLocal, p))
	// Validate send-list bounds eagerly so executor failures point at
	// the inspector.
	for src, lst := range s.sendLocal {
		for _, l := range lst {
			if l < 0 || l >= myLocalSize {
				panicSendRange(src, l, me, myLocalSize)
			}
		}
	}
	return s, ref
}

func cmpGhostRef(a, b ghostRef) int {
	if c := cmp.Compare(a.owner, b.owner); c != 0 {
		return c
	}
	return cmp.Compare(a.global, b.global)
}

func panicSendRange(src, l, me, size int) {
	panic(fmt.Sprintf("schedule: rank %d requested local index %d of rank %d (size %d)", src, l, me, size))
}

// move is the one pack → all-to-all → unpack body behind Gather and
// ScatterOp. With a nil op it runs owner→consumer: the elements
// sendLocal names are packed from local and land in the ghost slots
// recvGhost names. With an op it runs consumer→owner: the ghost slots
// are packed and each arriving value is combined into its owner's
// element.
//
//chaos:hotpath
func move(c *machine.Ctx, s *Schedule, name string, local, ghost []float64, op func(owned, contrib float64) float64) {
	if len(ghost) != s.nGhost {
		panicGhostLen(name, len(ghost), s.nGhost)
	}
	pack, unpack, src, dst := s.sendLocal, s.recvGhost, local, ghost
	if op != nil {
		pack, unpack, src, dst = unpack, pack, ghost, local
	}
	nPack, nUnpack, count := 0, 0, s.floats.Counts(s.procs)
	for p := range pack {
		count[p] = len(pack[p])
		nPack += len(pack[p])
		nUnpack += len(unpack[p])
	}
	out := s.floats.Lay()
	for p, lst := range pack {
		row := out[p][:len(lst)]
		for i, l := range lst {
			row[i] = src[l]
		}
		out[p] = row
	}
	c.Words(nPack)
	in := c.ExchangeFloats(out, s.floats.In())
	for p, lst := range unpack {
		vals := in[p]
		if len(vals) != len(lst) {
			panicDelivered(name, p, len(vals), len(lst))
		}
		if op != nil {
			for i, l := range lst {
				dst[l] = op(dst[l], vals[i])
			}
		} else {
			for i, l := range lst {
				dst[l] = vals[i]
			}
		}
	}
	if op != nil {
		c.Flops(nUnpack)
	}
	c.Words(nUnpack)
}

func panicGhostLen(name string, got, want int) {
	panic(fmt.Sprintf("schedule: %s: ghost buffer length %d, want %d", name, got, want))
}

func panicDelivered(name string, p, got, want int) {
	panic(fmt.Sprintf("schedule: %s from %d delivered %d values, want %d", name, p, got, want))
}

func addFloat(owned, contrib float64) float64 { return owned + contrib }

// Gather executes the schedule owner→consumer: ghost[slot] receives the
// current value of the owning rank's element for every ghost slot.
// ghost must have length NGhost. Collective.
func (s *Schedule) Gather(c *machine.Ctx, local, ghost []float64) {
	move(c, s, "Gather", local, ghost, nil)
}

// ScatterAdd executes the schedule consumer→owner with an addition
// reduction: every ghost slot's value is added into the owning rank's
// element. This implements the paper's left-hand-side REDUCE(ADD, ...)
// accumulation. Collective.
func (s *Schedule) ScatterAdd(c *machine.Ctx, local, ghost []float64) {
	s.ScatterOp(c, local, ghost, addFloat)
}

// ScatterOp is ScatterAdd generalized to any commutative, associative
// reduction (max, min, multiply, ...). Contributions from different
// ranks are combined in rank order, so the result is deterministic.
func (s *Schedule) ScatterOp(c *machine.Ctx, local, ghost []float64, op func(owned, contrib float64) float64) {
	if op == nil {
		panic("schedule: ScatterOp with a nil op")
	}
	move(c, s, "Scatter", local, ghost, op)
}
