// Package scratch holds the buffer-reuse idioms of the runtime's
// caller-owned workspaces (the partition arena, the GeoCoL assembler,
// the schedule Builder, the translation-table Workspace): Grow for a
// buffer, Rows for the send rows of an all-to-all, IndexSet for the
// distinct indices of a list and their ascending numbering.
package scratch

// Grow returns (*buf)[:n], reallocating only when the capacity is
// short. The contents are unspecified: callers that need zeroed
// contents clear explicitly — most hot-path buffers are fully
// overwritten before use, and making that explicit at the use site is
// the contract that keeps reuse safe.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Rows builds the send rows of an ownership-transfer all-to-all
// (machine.Ctx.ExchangeInts, ExchangeFloats) — one slice per
// destination rank — inside one flat array: the caller counts what each
// rank gets (or an upper bound), Lay carves the array into empty rows
// of exactly those capacities, and the caller appends into them (or
// reslices them to their counts and fills by index). No row ever grows,
// and a flat array grows only when a use outsizes every earlier one.
//
// Every send row outside the machine comes from a Rows: the schedule's
// request lists and data movements, the ghost exchanges, the
// partitioner's routing. This comment is the one ownership argument
// they share. The rows and their header table go out as they are, with
// no sender-side copy, so a Rows keeps to the exchange's rule — a sent
// payload is rewritten only after the sender has returned from a later
// collective — by alternating two flat arrays and two header tables:
// what Lay hands out for use n is next written for use n+2, and in
// between the sender has returned from the exchange of use n+1, which
// every reader of use n's rows entered after reading them (a receiver
// that keeps its rows, as a schedule's peers keep its request lists,
// reads them until it enters that exchange). One array or one header
// table would put use n+1's writes before any later collective; two is
// the minimum. Every Lay must therefore be followed by exactly one
// exchange of its rows before the next Lay, and one Rows may serve any
// number of exchange sites as long as all of them run on one rank's
// goroutine in that order.
type Rows[T int | float64] struct {
	n    []int
	flat [2][]T
	out  [2][][]T
	in   [][]T
	turn int
}

// Counts returns procs zeroed counters; the caller adds to counts[r]
// the number of elements bound for rank r.
func (rr *Rows[T]) Counts(procs int) []int {
	if cap(rr.in) < procs {
		// The receive table and the two send tables are one array.
		h := make([][]T, 3*procs)
		rr.in, rr.out[0], rr.out[1] = h[:procs:procs], h[procs:2*procs:2*procs], h[2*procs:]
	}
	rr.in, rr.out[0], rr.out[1] = rr.in[:procs], rr.out[0][:procs], rr.out[1][:procs]
	n := Grow(&rr.n, procs)
	clear(n)
	return n
}

// Lay returns the rows for the counts just taken: each empty, with
// exactly its counted capacity.
func (rr *Rows[T]) Lay() [][]T {
	rr.turn ^= 1
	total := 0
	for _, k := range rr.n {
		total += k
	}
	flat, rows := Grow(&rr.flat[rr.turn], total), rr.out[rr.turn]
	off := 0
	for r, k := range rr.n {
		rows[r] = flat[off : off : off+k]
		off += k
	}
	return rows
}

// In returns the receive-header table to hand to the exchange, one
// entry per rank of the counts just taken; the exchange overwrites
// every entry. The headers are good until the next exchange through
// this Rows, the rows they point to until this rank enters its next
// collective.
func (rr *Rows[T]) In() [][]T { return rr.in }
