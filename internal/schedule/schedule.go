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
	"fmt"

	"chaos/internal/machine"
	"chaos/internal/scratch"
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

// Options is the inspector's option set. The paper's inspector always
// eliminates duplicate references, so the one setting is where the
// ghost slots sit in the reference vector's index space.
type Options struct {
	// GhostOffset is the number of elements between the end of the
	// local section and ghost slot 0: off-processor references are
	// numbered myLocalSize + GhostOffset + slot. Zero, the default,
	// puts the ghosts right behind the local section.
	GhostOffset int
}

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
// table's dereference buffers, the set that numbers the distinct
// off-processor references, and what each of them resolved to. The zero
// value is ready; buffers grow to the largest reference list seen and
// are reused by every later build, so one Builder shared by all the
// builds of an inspection makes their scratch a one-time cost. Nothing
// a build returns points into the Builder.
type Builder struct {
	tt ttable.Workspace
	// offPos lists the positions of the off-processor references.
	offPos []int
	// set numbers the distinct off-processor elements in ascending
	// global order. The element numbered d lives at local index loc[d]
	// of rank own[d] and fills ghost slot slot[d]; next[o] is the ghost
	// slot that owner o's next element takes.
	set                  scratch.IndexSet
	own, loc, slot, next []int
}

// BuildGather runs the inspector for one data array. res resolves the
// array's global index space; myLocalSize is the length of the calling
// rank's local section; globals lists every global index the local
// iterations reference (duplicates allowed, order preserved).
//
// It returns the communication schedule and a reference vector ref with
// len(ref) == len(globals): ref[i] < myLocalSize means globals[i] is
// locally owned at that local index; otherwise globals[i] is an
// off-processor element available in ghost slot
// ref[i]-myLocalSize-opt.GhostOffset after a Gather. This is the
// paper's "information that associates off-processor data copies with
// on-processor buffer locations".
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
// Off-processor references are collected in one pass and numbered in
// ascending global order by an IndexSet; a stable counting sort of the
// distinct ones by owner then gives the ghost-slot order (owner,
// global), and the per-owner request and slot lists are rows of two
// flat arrays.
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
	// counted first so their list and the set are sized once.
	nOff, maxOff := 0, 0
	for i, o := range owners {
		if o != me {
			nOff++
			maxOff = max(maxOff, globals[i])
		}
	}
	offPos := scratch.Grow(&b.offPos, nOff)[:0]
	b.set.Reset(maxOff)
	for i, o := range owners {
		if o == me {
			ref[i] = locals[i]
		} else {
			offPos = append(offPos, i)
			b.set.Mark(globals[i])
		}
	}

	// Number the distinct elements in ascending global order, and note
	// each one's number in ref until its slot is known.
	nGhost := b.set.Number()
	own, loc := scratch.Grow(&b.own, nGhost), scratch.Grow(&b.loc, nGhost)
	for _, i := range offPos {
		d := b.set.Rank(globals[i])
		own[d], loc[d] = owners[i], locals[i]
		ref[i] = d
	}
	// The paper's inspector hashes every reference and sorts the
	// distinct ones; the clock charges that.
	c.Words(2 * len(globals)) // hash probes + owner tests
	c.Words(2 * nGhost)       // sort traffic (approximate)

	// Slot order is (owner, global), for determinism and contiguous
	// per-peer receive buffers: a stable counting sort of the numbered
	// elements by owner, which also fills the per-owner request lists
	// (the owner's local indices we need) and ghost-slot lists.
	s := old
	if s == nil {
		s = &Schedule{}
	}
	s.procs, s.nGhost = p, nGhost
	count := s.reqs.Counts(p)
	for _, o := range own {
		count[o]++
	}
	requests, recvGhost := s.reqs.Lay(), scratch.Grow(&s.recvGhost, p)
	slots, next := scratch.Grow(&s.slots, nGhost), scratch.Grow(&b.next, p)
	off := 0
	for o, k := range count {
		recvGhost[o] = nil
		if k > 0 {
			recvGhost[o] = slots[off : off : off+k]
		}
		next[o] = off
		off += k
	}
	slot := scratch.Grow(&b.slot, nGhost)
	for d, o := range own {
		slot[d] = next[o]
		next[o]++
		requests[o] = append(requests[o], loc[d])
		recvGhost[o] = append(recvGhost[o], slot[d])
	}
	base := myLocalSize + opt.GhostOffset
	for _, i := range offPos {
		ref[i] = base + slot[ref[i]]
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
