package geocol

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"chaos/internal/csr"
	"chaos/internal/machine"
)

// a2aPush is the AlltoAllInts formulation of the three int exchanges —
// the specification their ownership-transfer bodies must equal: every
// send-list entry whose vertex is selected (all of them when changed is
// nil) ships its position, its value, or both, and AlltoAllInts copies
// the rows, so nothing here depends on when a buffer is rewritten. The
// result is the received rows, by sender.
func a2aPush(c *machine.Ctx, ge *GhostExchange, vals []int, changed []bool, position, value bool) [][]int {
	out := make([][]int, len(ge.send))
	for r, ls := range ge.send {
		for i, l := range ls {
			if changed != nil && !changed[l] {
				continue
			}
			if position {
				out[r] = append(out[r], i)
			}
			if value {
				out[r] = append(out[r], vals[l])
			}
		}
	}
	return c.AlltoAllInts(out)
}

// exchangeProgram runs, on every graph family inside one machine run,
// three rounds of three dense pushes, a float push, an incremental
// update and marks on one pattern per family — through the GhostExchange methods (every
// pattern derived on one shared GhostScratch, as a ladder does) or
// through the AlltoAllInts formulation — with random per-rank stalls
// between leaving an exchange and reading what it delivered, and
// returns every result with the rank's clock after it.
func exchangeProgram(t *testing.T, p int, model bool) [][]asmStepInts {
	t.Helper()
	fams := edgeFamilies(p)
	traces := make([][]asmStepInts, p)
	cfg := machine.IPSC860(p)
	err := machine.Run(cfg, func(c *machine.Ctx) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		var gs GhostScratch
		tr := &traces[c.Rank()]
		add := func(what string, ints []int) {
			if rng.Intn(3) == 0 {
				time.Sleep(time.Duration(rng.Intn(80)) * time.Microsecond)
			}
			*tr = append(*tr, asmStepInts{what, slices.Clone(ints), c.Clock()})
		}
		for i := range fams {
			f := &fams[i]
			e1, e2 := f.share(c.Rank(), p)
			g := Build(c, f.n, WithLink(e1, e2))
			ge := gs.NewGhostExchange(c, g)
			lo, localN := g.Home.Lo(c.Rank()), g.LocalN(c.Rank())
			vals, fvals, changed := make([]int, localN), make([]float64, localN), make([]bool, localN)
			var ghost, marks, touched []int
			for round := 0; round < 3; round++ {
				for l := range vals {
					vals[l] = 1000*round + lo + l
					fvals[l] = float64(vals[l]+3) / 4
					changed[l] = (lo+l+round)%3 == 0
				}
				// Three dense pushes back to back: nothing but the pushes
				// themselves separates a send buffer's two uses.
				for k := 0; k < 3; k++ {
					for l := range vals {
						vals[l]++
					}
					if model {
						ghost = ghost[:0]
						for _, xs := range a2aPush(c, ge, vals, nil, false, true) {
							ghost = append(ghost, xs...)
						}
					} else {
						ghost = ge.PushIntsInto(c, vals, ghost)
					}
					add(f.name+": push", ghost)
				}

				fghost := ge.PushFloatsInto(c, fvals, nil)
				for s, id := range ge.IDs {
					if fghost[s] != float64(1000*round+id+3)/4 {
						t.Errorf("P=%d rank %d %s: float ghost of %d is %v", p, c.Rank(), f.name, id, fghost[s])
					}
				}

				for l := range vals {
					vals[l] += 7 * (l % 2) // even vertices resend their value
				}
				if model {
					touched = touched[:0]
					for r, xs := range a2aPush(c, ge, vals, changed, true, true) {
						for i := 0; i+1 < len(xs); i += 2 {
							if s := ge.recvStart[r] + xs[i]; ghost[s] != xs[i+1] {
								ghost[s] = xs[i+1]
								touched = append(touched, s)
							}
						}
					}
				} else {
					touched = ge.UpdateIntsTouchedInto(c, vals, changed, ghost, touched)
				}
				add(f.name+": update", ghost)
				add(f.name+": touched", touched)

				marks = append(marks[:0], make([]int, len(ge.IDs))...)
				if model {
					for r, xs := range a2aPush(c, ge, nil, changed, true, false) {
						for _, i := range xs {
							marks[ge.recvStart[r]+i] = 1
						}
					}
				} else {
					ge.PushMarks(c, changed, marks)
				}
				add(f.name+": marks", marks)
			}
		}
	})
	if err != nil {
		t.Fatalf("P=%d model=%v: %v", p, model, err)
	}
	return traces
}

// asmStepInts is one recorded result of exchangeProgram.
type asmStepInts struct {
	what  string
	ints  []int
	clock float64
}

// TestGhostExchangesOwnershipUnderDelays is the ownership rule's proof
// for the ghost exchanges: back-to-back pushes, updates and marks on
// one pattern, three rounds so that the buffer of round one is
// refilled while a stalled peer would still be reading it if fewer
// than two alternated, on hostile graphs (idle ranks, fewer vertices
// than ranks), P ∈ {1, 3, 8}. Every delivered array and every per-rank
// virtual clock must equal the AlltoAllInts formulation's. A buffer
// rewritten too early is a difference here or a data race under -race.
func TestGhostExchangesOwnershipUnderDelays(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		want := exchangeProgram(t, p, true)
		got := exchangeProgram(t, p, false)
		for r := range want {
			for i, w := range want[r] {
				switch s := got[r][i]; {
				case !slices.Equal(s.ints, w.ints):
					t.Errorf("P=%d rank %d, %s: %v, AlltoAll formulation %v", p, r, w.what, s.ints, w.ints)
				case s.clock != w.clock:
					t.Errorf("P=%d rank %d, %s: clock %v, AlltoAll formulation %v", p, r, w.what, s.clock, w.clock)
				}
			}
		}
	}
}

// TestGhostExchangeBytesCountsWhatIsRetained pins the size the service
// cache charges for a pattern: the capacities of the arrays it retains,
// the same before and after any exchange with any changed set.
func TestGhostExchangeBytesCountsWhatIsRetained(t *testing.T) {
	const p = 3
	fams := edgeFamilies(p)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		for i := range fams {
			f := &fams[i]
			e1, e2 := f.share(c.Rank(), p)
			g := Build(c, f.n, WithLink(e1, e2))
			ge := NewGhostExchange(c, g)
			want := 8 * (cap(ge.IDs) + cap(ge.Loc) + cap(ge.recvStart))
			for _, row := range ge.send {
				want += 8 * cap(row)
			}
			if got := ge.Bytes(); got != want {
				t.Errorf("rank %d %s: Bytes %d, retained capacities %d", c.Rank(), f.name, got, want)
			}
			localN := g.LocalN(c.Rank())
			vals, changed := make([]int, localN), make([]bool, localN)
			ghost := ge.PushIntsInto(c, vals, nil)
			for _, every := range []int{1, 2, localN + 1} { // all, half, none
				for l := range changed {
					changed[l] = l%every == 0
					vals[l]++
				}
				ghost = ge.PushIntsInto(c, vals, ghost)
				_ = ge.UpdateIntsTouchedInto(c, vals, changed, ghost, nil)
				ge.PushMarks(c, changed, ghost)
				if got := ge.Bytes(); got != want {
					t.Errorf("rank %d %s: Bytes %d after exchanging every %d-th vertex, %d before", c.Rank(), f.name, got, every, want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherToIsRootOnlyGather pins the root-only gather against the
// all-ranks one, in two machines side by side: root's Full equals theirs
// field by field, the other ranks hold the scalar fields and no array,
// and every rank's clock ends where the all-ranks gather leaves it, to
// the last bit — on graphs with idle and empty ranks, without edge
// weights (CONSTRUCT) and with them and LOAD (a contraction), with and
// without GEOMETRY.
func TestGatherToIsRootOnlyGather(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		fams := edgeFamilies(p)
		root := p / 2
		run := func(rootOnly bool) (fulls [][]*csr.Graph, clocks []float64) {
			fulls, clocks = make([][]*csr.Graph, p), make([]float64, p)
			cfg := machine.IPSC860(p)
			err := machine.Run(cfg, func(c *machine.Ctx) {
				gather := func(g *Graph) {
					c.Flops(100 * (c.Rank() + 1)) // unequal clocks going in
					at := machine.AllRanks
					if rootOnly {
						at = root
					}
					fulls[c.Rank()] = append(fulls[c.Rank()], g.GatherTo(c, at))
				}
				for i := range fams {
					f := &fams[i]
					e1, e2 := f.share(c.Rank(), p)
					g := Build(c, f.n, WithLink(e1, e2))
					gather(g)
					cmap, coarseN := pairUp(g, c.Rank())
					gather(BuildCoarse(c, g, NewGhostExchange(c, g), cmap, coarseN))
					xs := make([]float64, g.LocalN(c.Rank()))
					for l := range xs {
						xs[l] = float64(g.Home.Lo(c.Rank()) + l)
					}
					gather(Build(c, f.n, WithGeometry(xs, xs), WithLoad(xs)))
				}
				clocks[c.Rank()] = c.Clock()
			})
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			return
		}
		want, wantClocks := run(false)
		got, gotClocks := run(true)
		for r := 0; r < p; r++ {
			if gotClocks[r] != wantClocks[r] {
				t.Errorf("P=%d rank %d: clock %v, all-ranks gather %v", p, r, gotClocks[r], wantClocks[r])
			}
			for i, f := range got[r] {
				w := *want[r][i]
				if r != root {
					w.XAdj, w.Adj, w.EdgeW, w.Weights = nil, nil, nil, nil
				}
				if !reflect.DeepEqual(*f, w) {
					t.Errorf("P=%d rank %d, gather %d: %+v, want %+v", p, r, i, *f, w)
				}
			}
		}
	}
}

// TestGhostExchangesAllocateNothingWarm pins the int exchanges'
// allocation-free steady state at the two extremes of the changed set
// — every boundary vertex and none: once both buffers of the pattern
// and of its row builder have carried the larger one, a push, an
// update or a marks exchange allocates nothing (a row counted short
// would grow by append and show here).
func TestGhostExchangesAllocateNothingWarm(t *testing.T) {
	const n, p = 60, 4
	var before, after runtime.MemStats
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		e1, e2 := ringEdges(n, p, c.Rank())
		g := Build(c, n, WithLink(e1, e2))
		ge := NewGhostExchange(c, g)
		localN := g.LocalN(c.Rank())
		vals, changed := make([]int, localN), make([]bool, localN)
		ghost, touched := make([]int, len(ge.IDs)), make([]int, 0, len(ge.IDs))
		round := func(i int) {
			for l := range vals {
				vals[l], changed[l] = i, i%2 == 0
			}
			ghost = ge.PushIntsInto(c, vals, ghost)
			for l := range vals {
				vals[l]++
			}
			_ = ge.UpdateIntsTouchedInto(c, vals, changed, ghost, touched)
			ge.PushMarks(c, changed, ghost)
		}
		for i := 0; i < 4; i++ {
			round(i)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier() // nobody runs ahead of the reading
		for i := 4; i < 12; i++ {
			round(i)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("8 warm rounds of push, update and marks on %d ranks allocated %d objects", p, d)
	}
}
