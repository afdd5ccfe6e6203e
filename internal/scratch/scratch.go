// Package scratch holds the buffer-reuse idioms of the runtime's
// caller-owned workspaces (the partition arena, the GeoCoL assembler,
// the schedule Builder, the translation-table Workspace): Grow for a
// buffer, Rows for the send rows of an all-to-all.
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
// (machine.Ctx.ExchangeInts) — one int slice per destination rank —
// inside one flat array: the caller counts what each rank gets (or an
// upper bound), Lay carves the array into empty rows of exactly those
// capacities, and the caller appends into them. No row ever grows, and
// a flat array grows only when a use outsizes every earlier one.
//
// The rows go out as they are, with no sender-side copy, so a Rows
// keeps to the exchange's ownership rule — a sent payload is rewritten
// only after the sender has returned from a later collective — by
// alternating two flat arrays and two header tables: what Lay hands out
// for use n is next written for use n+2, after the sender has returned
// from the exchange of use n+1. Every Lay must therefore be followed
// by exactly one exchange of its rows before the next Lay.
type Rows struct {
	n    []int
	flat [2][]int
	rows [2][][]int
	in   [][]int
	turn int
}

// Counts returns procs zeroed counters; the caller adds to counts[r]
// the number of ints bound for rank r.
func (rr *Rows) Counts(procs int) []int {
	n := Grow(&rr.n, procs)
	clear(n)
	return n
}

// Lay returns the rows for the counts just taken: each empty, with
// exactly its counted capacity.
func (rr *Rows) Lay() [][]int {
	rr.turn ^= 1
	total := 0
	for _, k := range rr.n {
		total += k
	}
	flat := Grow(&rr.flat[rr.turn], total)
	rows := Grow(&rr.rows[rr.turn], len(rr.n))
	off := 0
	for r, k := range rr.n {
		rows[r] = flat[off : off : off+k]
		off += k
	}
	return rows
}

// In returns the receive-header table to hand to the exchange, one
// entry per rank of the counts just taken; the exchange overwrites
// every entry, and the received rows are good until the next exchange
// through this Rows.
func (rr *Rows) In() [][]int { return Grow(&rr.in, len(rr.n)) }
