// Package remap moves distributed arrays between distributions (the
// paper's Phase C and the REDISTRIBUTE directive): given the new owner
// of every locally held element, it builds a redistribution plan — a
// communication schedule from the old to the new distribution — and
// applies it to float64 or int payloads. One plan moves any number of
// arrays aligned to the same source distribution, which is how the
// runtime remaps x and y (and later the loop's indirection arrays) with
// a single inspector-style preprocessing step.
package remap

import (
	"fmt"
	"sort"

	"chaos/internal/machine"
)

// Plan is one rank's half of a redistribution. After Build, the calling
// rank will own NewGlobals() (ascending), and MoveFloats/MoveInts
// produce the local sections of arrays under the new distribution with
// local index = position in NewGlobals().
type Plan struct {
	procs int
	// sendPos[p] lists old-local positions shipped to rank p
	// (including p == self for elements that stay).
	sendPos [][]int
	// place[p][k] is the new-local position of the k-th element
	// received from rank p.
	place [][]int
	// newGlobals is the ascending list of globals now owned here.
	newGlobals []int
}

// Build constructs a redistribution plan. myGlobals lists the calling
// rank's current elements by global id (local order); newOwner[i] names
// the destination rank of myGlobals[i]. Collective. New local indices
// follow ascending global order, the numbering the translation table
// (ttable.Build) records for the redistributed array.
func Build(c *machine.Ctx, myGlobals, newOwner []int) *Plan {
	if len(myGlobals) != len(newOwner) {
		panic(fmt.Sprintf("remap: %d globals but %d owners", len(myGlobals), len(newOwner)))
	}
	p := c.Procs()
	pl := &Plan{procs: p}
	pl.sendPos = make([][]int, p)
	out := make([][]int, p)
	for i, g := range myGlobals {
		d := newOwner[i]
		if d < 0 || d >= p {
			panic(fmt.Sprintf("remap: destination %d out of range", d))
		}
		pl.sendPos[d] = append(pl.sendPos[d], i)
		out[d] = append(out[d], g)
	}
	c.Words(2 * len(myGlobals))
	in := c.ExchangeInts(out, nil) // out's rows are built here and never written again

	// Sort incoming globals to fix the new local order; remember
	// where each (src, k) element lands.
	type slot struct{ g, src, k int }
	var slots []slot
	for src := 0; src < p; src++ {
		for k, g := range in[src] {
			slots = append(slots, slot{g, src, k})
		}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].g < slots[b].g })
	for i := 1; i < len(slots); i++ {
		if slots[i].g == slots[i-1].g {
			panic(fmt.Sprintf("remap: global %d delivered twice", slots[i].g))
		}
	}
	pl.place = make([][]int, p)
	for src := 0; src < p; src++ {
		pl.place[src] = make([]int, len(in[src]))
	}
	pl.newGlobals = make([]int, len(slots))
	for pos, s := range slots {
		pl.newGlobals[pos] = s.g
		pl.place[s.src][s.k] = pos
	}
	c.Words(3 * len(slots))
	return pl
}

// NewGlobals returns the globals owned after the move, ascending (the
// i-th entry has new local index i). Do not mutate.
func (pl *Plan) NewGlobals() []int { return pl.newGlobals }

// MoveFloats redistributes one float64 array aligned with the source
// distribution. Collective.
func (pl *Plan) MoveFloats(c *machine.Ctx, data []float64) []float64 {
	return move(pl, c, data, c.ExchangeFloats)
}

// MoveInts redistributes one int array aligned with the source
// distribution. Collective.
func (pl *Plan) MoveInts(c *machine.Ctx, data []int) []int {
	return move(pl, c, data, c.ExchangeInts)
}

// move is MoveFloats and MoveInts: it ships data's elements along the
// plan with exchange, c's ownership-transfer all-to-all for T.
func move[T float64 | int](pl *Plan, c *machine.Ctx, data []T, exchange func(out, in [][]T) [][]T) []T {
	out := make([][]T, pl.procs)
	for p, pos := range pl.sendPos {
		if len(pos) == 0 {
			continue
		}
		buf := make([]T, len(pos))
		for k, i := range pos {
			buf[k] = data[i]
		}
		out[p] = buf
	}
	c.Words(lenAll(pl.sendPos))
	in := exchange(out, nil) // out's rows are built here and never written again
	res := make([]T, len(pl.newGlobals))
	for src, places := range pl.place {
		vals := in[src]
		if len(vals) != len(places) {
			panic(fmt.Sprintf("remap: rank %d delivered %d values, want %d", src, len(vals), len(places)))
		}
		for k, pos := range places {
			res[pos] = vals[k]
		}
	}
	c.Words(len(res))
	return res
}

func lenAll(xs [][]int) int {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	return n
}
