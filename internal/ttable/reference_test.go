package ttable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chaos/internal/dist"
	"chaos/internal/machine"
)

// referenceResolve is the bucketed, map-and-append Resolve body this
// package shipped before the counting-sort rewrite, kept verbatim as
// the oracle of the differential test below.
func referenceResolve(t *Table, c *machine.Ctx, globals []int) ([]int, []int) {
	p := c.Procs()
	n := t.home.Size()

	owners := make([]int, len(globals))
	locals := make([]int, len(globals))

	// Group query positions by home rank, preserving a stable order.
	type ref struct{ pos, g int }
	byHome := make([][]ref, p)
	for pos, g := range globals {
		if g < 0 || g >= n {
			panic(fmt.Sprintf("ttable: query index %d out of range [0,%d)", g, n))
		}
		h := t.home.Owner(g)
		byHome[h] = append(byHome[h], ref{pos, g})
	}
	out := make([][]int, p)
	for h, refs := range byHome {
		if len(refs) == 0 {
			continue
		}
		qs := make([]int, len(refs))
		for i, r := range refs {
			qs[i] = r.g
		}
		out[h] = qs
	}
	c.Words(2 * len(globals))
	queries := c.AlltoAllInts(out)

	// Answer queries against the local table slice.
	lo := t.home.Lo(c.Rank())
	ans := make([][]int, p)
	for src := 0; src < p; src++ {
		qs := queries[src]
		if len(qs) == 0 {
			continue
		}
		a := make([]int, 2*len(qs))
		for i, g := range qs {
			hl := g - lo
			a[2*i] = t.owner[hl]
			a[2*i+1] = t.local[hl]
		}
		ans[src] = a
	}
	c.Words(2 * len(globals))
	replies := c.AlltoAllInts(ans)

	for h, refs := range byHome {
		rep := replies[h]
		for i, r := range refs {
			owners[r.pos] = rep[2*i]
			locals[r.pos] = rep[2*i+1]
		}
	}
	return owners, locals
}

// referenceRegularResolve is Regular.Resolve's former body.
func referenceRegularResolve(r Regular, c *machine.Ctx, globals []int) ([]int, []int) {
	owners := make([]int, len(globals))
	locals := make([]int, len(globals))
	for i, g := range globals {
		owners[i] = r.D.Owner(g)
		locals[i] = r.D.Local(g)
	}
	c.Words(2 * len(globals))
	return owners, locals
}

// queryList draws one rank's query list of a differential round: empty
// on some ranks, otherwise a mix of uniform draws (mostly remote), the
// rank's own elements (all local) and repeats of earlier entries.
func queryList(rng *rand.Rand, n int, mine []int) []int {
	if rng.Intn(5) == 0 {
		return nil
	}
	qs := make([]int, rng.Intn(3*n))
	mode := rng.Intn(3)
	for i := range qs {
		switch {
		case i > 0 && rng.Intn(3) == 0:
			qs[i] = qs[rng.Intn(i)]
		case mode == 1 && len(mine) > 0:
			qs[i] = mine[rng.Intn(len(mine))]
		default:
			qs[i] = rng.Intn(n)
		}
	}
	return qs
}

// resolveTrace is what one rank saw over a run of several dereferences.
type resolveTrace struct {
	owners, locals [][]int
	clocks         []float64
}

// TestResolveMatchesReference drives the counting-sort Resolve (one
// recycled Workspace per rank, and the one-shot wrapper) and the
// reference body through the same random query sequences and demands
// equal answers and equal per-rank virtual clocks after every call.
func TestResolveMatchesReference(t *testing.T) {
	const n, rounds = 97, 6
	for _, p := range []int{1, 2, 3, 8} {
		for _, kind := range []string{"table", "regular"} {
			owner := irregularOwner(n, p)
			run := func(impl string) []resolveTrace {
				traces := make([]resolveTrace, p)
				cfg := machine.IPSC860(p)
				err := machine.Run(cfg, func(c *machine.Ctx) {
					mine := myGlobals(owner, c.Rank())
					tab := Build(c, n, mine)
					reg := Regular{D: dist.NewBlock(n, p)}
					rng := rand.New(rand.NewSource(int64(1000*p + c.Rank())))
					var ws Workspace
					tr := &traces[c.Rank()]
					for round := 0; round < rounds; round++ {
						qs := queryList(rng, n, mine)
						var o, l []int
						switch {
						case impl == "reference" && kind == "regular":
							o, l = referenceRegularResolve(reg, c, qs)
						case impl == "reference":
							o, l = referenceResolve(tab, c, qs)
						case kind == "regular" && round%2 == 0:
							o, l = reg.ResolveInto(c, new(Workspace), qs)
						case kind == "regular":
							o, l = reg.ResolveInto(c, &ws, qs)
						case round%2 == 0:
							o, l = tab.Resolve(c, qs)
						default:
							o, l = tab.ResolveInto(c, &ws, qs)
						}
						tr.owners = append(tr.owners, slices.Clone(o))
						tr.locals = append(tr.locals, slices.Clone(l))
						tr.clocks = append(tr.clocks, c.Clock())
					}
				})
				if err != nil {
					t.Fatalf("P=%d %s %s: %v", p, kind, impl, err)
				}
				return traces
			}
			want, got := run("reference"), run("new")
			for r := range want {
				for round := range want[r].clocks {
					if !slices.Equal(got[r].owners[round], want[r].owners[round]) ||
						!slices.Equal(got[r].locals[round], want[r].locals[round]) {
						t.Errorf("P=%d %s rank %d round %d: answers differ from the reference", p, kind, r, round)
					}
					if got[r].clocks[round] != want[r].clocks[round] {
						t.Errorf("P=%d %s rank %d round %d: clock %v, reference %v",
							p, kind, r, round, got[r].clocks[round], want[r].clocks[round])
					}
				}
			}
		}
	}
}

// TestWorkspaceRecycledUnderDelays is the ownership rule's proof for
// the dereference: many back-to-back ResolveInto calls through one
// Workspace per rank, with random per-rank stalls so that ranks leave
// each exchange far apart. A buffer overwritten while a peer still
// reads it is a data race (run under -race) or a wrong answer.
func TestWorkspaceRecycledUnderDelays(t *testing.T) {
	const n, p, rounds = 64, 4, 200
	owner := irregularOwner(n, p)
	local := localsOf(owner)
	cfg := machine.Zero(p)
	err := machine.Run(cfg, func(c *machine.Ctx) {
		mine := myGlobals(owner, c.Rank())
		tab := Build(c, n, mine)
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		var ws Workspace
		for round := 0; round < rounds; round++ {
			qs := queryList(rng, n, mine)
			stall(rng)
			owners, locals := tab.ResolveInto(c, &ws, qs)
			stall(rng)
			for i, g := range qs {
				if owners[i] != owner[g] || locals[i] != local[g] {
					t.Errorf("rank %d round %d: wrong answer for %d", c.Rank(), round, g)
					break // keep up with the other ranks' collectives
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stall holds the calling rank up for a random, usually zero, time.
func stall(rng *rand.Rand) {
	if rng.Intn(4) == 0 {
		time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
	}
}
