package schedule

import (
	"chaos/internal/machine"
	"chaos/internal/scratch"
	"chaos/internal/slottab"
	"chaos/internal/ttable"
)

// BuildIncremental builds an *incremental* communication schedule — a
// CHAOS capability used by adaptive codes: given a base schedule whose
// ghost area already mirrors some off-processor elements, it fetches
// only the references in globals that the base does not cover.
//
// The returned reference vector addresses the combined buffer
// [ local | base ghosts | incremental ghosts ]: ref[i] < myLocalSize is
// a local element; myLocalSize <= ref[i] < myLocalSize+base.NGhost() is
// a base ghost slot; anything above is a slot of the new schedule
// (offset by myLocalSize+base.NGhost()).
//
// A Gather on the incremental schedule moves only the new elements, so
// a loop whose reference set grew slightly (an adapted mesh, an updated
// pair list) pays communication proportional to the change, while the
// base schedule keeps serving the old references. Collective.
func BuildIncremental(c *machine.Ctx, res ttable.Resolver, myLocalSize int, base *Schedule, globals []int, opt Options) (*Schedule, []int) {
	var b Builder
	return b.BuildIncremental(c, res, myLocalSize, base, globals, opt, nil)
}

// BuildIncremental is the package-level BuildIncremental on b's
// scratch, with the reference vector written into dst's storage when
// that is large enough (see Builder.BuildGather). Collective.
//
//chaos:hotpath
func (b *Builder) BuildIncremental(c *machine.Ctx, res ttable.Resolver, myLocalSize int, base *Schedule, globals []int, opt Options, dst []int) (*Schedule, []int) {
	me := c.Rank()
	owners, locals := res.ResolveInto(c, &b.tt, globals)

	// The first slot mirroring a global serves it.
	b.seen.Reset(len(base.ghostGlobal))
	for slot, g := range base.ghostGlobal {
		if e := b.seen.Entry(g); e.Key1 == 0 {
			*e = slottab.Entry{Key1: g + 1, Val: slot}
		}
	}

	ref := scratch.Grow(&dst, len(globals))
	newIdx, newGlobals := b.newIdx[:0], b.newGlobals[:0]
	for i, g := range globals {
		if owners[i] == me {
			ref[i] = locals[i]
		} else if e := b.seen.Entry(g); e.Key1 != 0 {
			ref[i] = myLocalSize + e.Val
		} else {
			newIdx = append(newIdx, i)
			newGlobals = append(newGlobals, g)
		}
	}
	b.newIdx, b.newGlobals = newIdx, newGlobals
	c.Words(2 * len(globals))

	// Build a fresh schedule over only the uncovered references. This
	// is collective even when a rank has nothing new (empty list).
	inc, incRef := b.BuildGather(c, res, myLocalSize, newGlobals, opt, nil, b.incRef)
	b.incRef = incRef
	offset := base.nGhost
	for k, i := range newIdx {
		ref[i] = incRef[k] + offset // all uncovered refs are off-processor
	}
	return inc, ref
}
