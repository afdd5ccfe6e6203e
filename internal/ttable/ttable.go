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
// result vectors, the queries bucketed by home rank with the query
// position each came from, the answers to the peers' queries, and the
// row headers of the two exchanges. The zero value is ready; buffers
// grow to the largest query list seen and are reused after that.
// Nothing in a Table points into a Workspace, so dropping the
// workspace drops all of it.
type Workspace struct {
	owners, locals []int
	// home[pos] is the home rank of globals[pos].
	home []int
	// start[h] is where home rank h's bucket begins in qs and qpos
	// (len Procs+1); next is the fill cursor of the second pass.
	start, next []int
	qs, qpos    []int
	ans         []int
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

// ResolveInto is Resolve on ws's buffers. Queries are bucketed by home
// rank with a two-pass counting sort (count, prefix-sum, fill), which
// keeps each bucket in query order; both legs of the round trip are
// ownership-transfer exchanges (machine.Ctx.ExchangeInts) straight out
// of ws. That is within the exchange's rule: qs and qout are next
// written by the next dereference through ws, after this rank returned
// from the reply exchange, and ans and aout after it returned from
// that dereference's query exchange; the peers' queries are read
// before the reply exchange and their replies before ResolveInto
// returns.
//
//chaos:hotpath
func (t *Table) ResolveInto(c *machine.Ctx, ws *Workspace, globals []int) ([]int, []int) {
	p := c.Procs()
	n := t.home.Size()

	owners := scratch.Grow(&ws.owners, len(globals))
	locals := scratch.Grow(&ws.locals, len(globals))

	// Pass 1: count the queries per home rank.
	home := scratch.Grow(&ws.home, len(globals))
	start := scratch.Grow(&ws.start, p+1)
	clear(start)
	for pos, g := range globals {
		if g < 0 || g >= n {
			panicQueryRange(g, n)
		}
		h := t.home.Owner(g)
		home[pos] = h
		start[h+1]++
	}
	for h := 0; h < p; h++ {
		start[h+1] += start[h]
	}

	// Pass 2: fill the buckets.
	next := scratch.Grow(&ws.next, p)
	copy(next, start)
	qs := scratch.Grow(&ws.qs, start[p])
	qpos := scratch.Grow(&ws.qpos, start[p])
	for pos, h := range home {
		k := next[h]
		next[h]++
		qs[k] = globals[pos]
		qpos[k] = pos
	}
	qout := scratch.Grow(&ws.qout, p)
	for h := range qout {
		qout[h] = qs[start[h]:start[h+1]]
	}
	c.Words(2 * len(globals))
	queries := c.ExchangeInts(qout, scratch.Grow(&ws.in, p))

	// Answer queries against the local table slice.
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
			hl := g - lo
			a[2*i] = t.owner[hl]
			a[2*i+1] = t.local[hl]
		}
		aout[src] = a
		k += len(a)
	}
	c.Words(2 * len(globals))
	replies := c.ExchangeInts(aout, ws.in)

	for h, rep := range replies {
		for i, pos := range qpos[start[h]:start[h+1]] {
			owners[pos] = rep[2*i]
			locals[pos] = rep[2*i+1]
		}
	}
	return owners, locals
}

func panicQueryRange(g, n int) {
	panic(fmt.Sprintf("ttable: query index %d out of range [0,%d)", g, n))
}

// Kind returns dist.Irregular.
func (t *Table) Kind() dist.Kind { return dist.Irregular }
