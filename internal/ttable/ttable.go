// Package ttable implements the CHAOS/PARTI distributed translation
// table. Irregularly distributed arrays have no closed-form owner
// function, so the runtime stores, for every global index g, the pair
// (owner rank, local index) on g's "home" processor — the owner of g
// under a default BLOCK distribution of the index space. Dereference
// answers batched global→(owner,local) queries with one round trip of
// all-to-all communication, which is exactly the index-translation step
// of the paper's Phase D inspector. The table is the one resolver of an
// irregular distribution: no rank ever holds the whole owner map. A
// BLOCK distribution resolves in closed form through Regular.
//
// The host dereferences distinct first: a rank asks each home rank
// about each distinct index once, however often it was queried, and
// copies the answer to every query. The virtual clock charges the
// paper's inspector, which sends every reference: the exchanged rows
// keep their per-reference lengths, only a distinct prefix of each
// is written and read, and a -1 ends a query row's prefix where it is
// shorter than the row.
// referenceResolve in reference_test.go is the per-reference body,
// kept as the oracle that the clocks match to the last bit.
package ttable

import (
	"fmt"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/scratch"
)

// Resolver answers batched ownership queries for a distributed index
// space. Regular distributions resolve locally; irregular ones go
// through the distributed translation table.
type Resolver interface {
	// Resolve returns, for each queried global index, the owning
	// rank and the local index there. Must be called by all ranks
	// collectively if the implementation communicates.
	//chaosvet:ignore testonly the one-shot dereference of the reference inspectors: core's TestInspectorMatchesReference and schedule's TestBuildersMatchReference resolve through it
	Resolve(c *machine.Ctx, globals []int) (owners, locals []int)
	// ResolveInto is Resolve through a caller-owned workspace: the
	// returned slices belong to ws and are good until its next use.
	ResolveInto(c *machine.Ctx, ws *Workspace, globals []int) (owners, locals []int)
	// Kind returns the distribution type for DAD bookkeeping.
	Kind() dist.Kind
}

// Regular adapts the closed-form BLOCK distribution to the Resolver
// interface; Resolve performs no communication.
type Regular struct {
	D dist.BlockDist
}

//chaosvet:ignore testonly satisfies Resolver.Resolve, which the reference inspectors of core's TestInspectorMatchesReference and schedule's TestBuildersMatchReference call on BLOCK arrays
func (r Regular) Resolve(c *machine.Ctx, globals []int) ([]int, []int) {
	var ws Workspace
	return r.ResolveInto(c, &ws, globals)
}

//chaos:hotpath
func (r Regular) ResolveInto(c *machine.Ctx, ws *Workspace, globals []int) ([]int, []int) {
	owners := scratch.Grow(&ws.owners, len(globals))
	locals := scratch.Grow(&ws.locals, len(globals))
	for i, g := range globals {
		owners[i] = r.D.Owner(g)
		locals[i] = r.D.Local(g)
	}
	c.Words(2 * len(globals))
	return owners, locals
}

func (r Regular) Kind() dist.Kind { return r.D.Kind() }

// Table is one rank's slice of the distributed translation table.
type Table struct {
	home  dist.BlockDist
	owner []int // indexed by home-local index
	local []int
}

// Build constructs the translation table for an irregular distribution
// of an index space of size n. myGlobals lists the global indices owned
// by the calling rank; the position of g in myGlobals is its local
// index. Build must be called collectively. It panics if the union of
// all ranks' myGlobals is not exactly [0, n) (each index owned once).
func Build(c *machine.Ctx, n int, myGlobals []int) *Table {
	p := c.Procs()
	home := dist.NewBlock(n, p)
	t := &Table{home: home}

	// Route (g, localIndex) to home(g). Payload layout: pairs.
	out := make([][]int, p)
	for l, g := range myGlobals {
		if g < 0 || g >= n {
			panic(fmt.Sprintf("ttable: global index %d out of range [0,%d)", g, n))
		}
		h := home.Owner(g)
		out[h] = append(out[h], g, l)
	}
	c.Words(2 * len(myGlobals))
	in := c.ExchangeInts(out, nil) // out's rows are built here and never written again

	sz := home.LocalSize(c.Rank())
	t.owner = make([]int, sz)
	t.local = make([]int, sz)
	filled := make([]bool, sz)
	lo := home.Lo(c.Rank())
	for src := 0; src < p; src++ {
		pairs := in[src]
		for i := 0; i+1 < len(pairs); i += 2 {
			g, l := pairs[i], pairs[i+1]
			hl := g - lo
			if filled[hl] {
				panic(fmt.Sprintf("ttable: global index %d claimed by multiple ranks", g))
			}
			filled[hl] = true
			t.owner[hl] = src
			t.local[hl] = l
		}
	}
	for hl, f := range filled {
		if !f {
			panic(fmt.Sprintf("ttable: global index %d owned by no rank", lo+hl))
		}
	}
	c.Words(2 * sz)
	return t
}

// Workspace is the grow-only scratch of one rank's dereferences: the
// result vectors, the bitmap that removes duplicate queries, the query
// and reply rows, and the row headers of the two exchanges. The zero
// value is ready; buffers grow to the largest index space and query
// list seen and are reused after that. Nothing in a Table points into
// a Workspace, so dropping the workspace drops all of it.
type Workspace struct {
	owners, locals []int
	// set numbers the queried indices in ascending order.
	set scratch.IndexSet
	// slot[pos] is the number of globals[pos]; mult[d] counts the
	// queries numbered d, and dans[2d], dans[2d+1] is their answer.
	slot []uint32
	mult []int32
	dans []int
	// Home rank h's query row is qs[start[h]:start[h+1]], and its
	// distinct queries are numbers first[h] to first[h+1]-1 (both
	// len Procs+1).
	start, first []int
	qs, ans      []int
	// qout and aout head the query and reply rows. They are two arrays
	// because each is a sent payload: peers read their row header out of
	// qout while this rank is already filling aout. in heads the
	// received rows of both legs; it is this rank's alone.
	qout, aout, in [][]int
}

// Resolve answers global→(owner, local) for each query index, in one
// all-to-all round trip. Duplicate queries are permitted. Must be
// called collectively.
func (t *Table) Resolve(c *machine.Ctx, globals []int) ([]int, []int) {
	var ws Workspace
	return t.ResolveInto(c, &ws, globals)
}

// ResolveInto is Resolve on ws's buffers. It asks each home rank about
// each distinct index once, and copies the answer back to every query
// of it. A bitmap over the index space removes the duplicates; since
// the home ranks hold consecutive BLOCK ranges, walking it yields each
// home rank's distinct queries as one ascending run.
//
// The virtual clock still charges the paper's inspector, which sends
// every reference. Both Words charges count len(globals), the row to
// home rank h is as long as the queries homed there, and the reply is
// twice as long as the row it answers, so the exchanges charge what
// the per-reference exchange charged. Only a row's distinct prefix is
// written and read: a -1 ends the prefix of a query row when it is
// shorter than the row, and a reply row needs no end mark, because
// its reader knows how many distinct queries it sent.
//
// Both legs of the round trip are ownership-transfer exchanges
// (machine.Ctx.ExchangeInts) straight out of ws. That is within the
// exchange's rule: qs and qout are next written by the next
// dereference through ws, after this rank returned from the reply
// exchange, and ans and aout after it returned from that dereference's
// query exchange; the peers' queries are read before the reply
// exchange and their replies before ResolveInto returns.
//
//chaos:hotpath
func (t *Table) ResolveInto(c *machine.Ctx, ws *Workspace, globals []int) ([]int, []int) {
	p := c.Procs()
	n := t.home.Size()

	owners := scratch.Grow(&ws.owners, len(globals))
	locals := scratch.Grow(&ws.locals, len(globals))

	// Mark the queried indices and number them in ascending order.
	ws.set.Reset(n)
	for _, g := range globals {
		if uint(g) >= uint(n) {
			panicQueryRange(g, n)
		}
		ws.set.Mark(g)
	}
	distinct := ws.set.Number()
	slot := scratch.Grow(&ws.slot, len(globals))
	mult := scratch.Grow(&ws.mult, distinct)
	clear(mult)
	for pos, g := range globals {
		d := ws.set.Rank(g)
		slot[pos] = uint32(d)
		mult[d]++
	}

	// Lay out the query rows: home rank h's row is as long as its
	// queries and begins with its distinct ones.
	start := scratch.Grow(&ws.start, p+1)
	first := scratch.Grow(&ws.first, p+1)
	for h := 0; h < p; h++ {
		first[h] = ws.set.Rank(t.home.Lo(h))
	}
	first[p] = distinct
	start[0] = 0
	for h := 0; h < p; h++ {
		refs := 0
		for _, m := range mult[first[h]:first[h+1]] {
			refs += int(m)
		}
		start[h+1] = start[h] + refs
	}
	qs := scratch.Grow(&ws.qs, len(globals))
	h, hi, d := 0, t.home.Hi(0), 0
	for g := range ws.set.All() {
		for g >= hi {
			h++
			hi = t.home.Hi(h)
		}
		qs[start[h]+d-first[h]] = g
		d++
	}
	qout := scratch.Grow(&ws.qout, p)
	for h := range qout {
		if end := start[h] + first[h+1] - first[h]; end < start[h+1] {
			qs[end] = -1
		}
		qout[h] = qs[start[h]:start[h+1]]
	}
	c.Words(2 * len(globals))
	queries := c.ExchangeInts(qout, scratch.Grow(&ws.in, p))

	// Answer the distinct prefix of every query row against the local
	// table slice.
	lo := t.home.Lo(c.Rank())
	total := 0
	for _, q := range queries {
		total += len(q)
	}
	ans := scratch.Grow(&ws.ans, 2*total)
	aout := scratch.Grow(&ws.aout, p)
	k := 0
	for src, q := range queries {
		a := ans[k : k+2*len(q)]
		for i, g := range q {
			if g < 0 {
				break
			}
			hl := g - lo
			a[2*i] = t.owner[hl]
			a[2*i+1] = t.local[hl]
		}
		aout[src] = a
		k += len(a)
	}
	c.Words(2 * len(globals))
	replies := c.ExchangeInts(aout, ws.in)

	dans := scratch.Grow(&ws.dans, 2*distinct)
	for h, rep := range replies {
		copy(dans[2*first[h]:2*first[h+1]], rep)
	}
	for pos, d := range slot {
		i := 2 * int(d)
		owners[pos] = dans[i]
		locals[pos] = dans[i+1]
	}
	return owners, locals
}

func panicQueryRange(g, n int) {
	panic(fmt.Sprintf("ttable: query index %d out of range [0,%d)", g, n))
}

// Kind returns dist.Irregular.
func (t *Table) Kind() dist.Kind { return dist.Irregular }
