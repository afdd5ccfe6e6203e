package geocol

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chaos/internal/machine"
)

// edgeFamily is one hostile input of the differential tests: an edge
// list over n vertices. A rank's share of it is every p-th edge, except
// that the family may leave the last rank without any.
type edgeFamily struct {
	name         string
	n            int
	e1, e2       []int
	lastRankIdle bool
}

// edgeFamilies are graphs that are not lattices: everything the
// count → prefix-sum → fill assembly could get wrong shows up in at
// least one of them. p is the machine size (one family depends on it).
func edgeFamilies(p int) []edgeFamily {
	rng := rand.New(rand.NewSource(1993))
	var fams []edgeFamily
	add := func(name string, n int, idle bool, gen func(emit func(u, v int))) {
		f := edgeFamily{name: name, n: n, lastRankIdle: idle}
		gen(func(u, v int) { f.e1, f.e2 = append(f.e1, u), append(f.e2, v) })
		fams = append(fams, f)
	}
	add("duplicates+self-loops", 23, false, func(emit func(u, v int)) {
		for i := 0; i < 120; i++ {
			u, v := rng.Intn(23), rng.Intn(23)
			emit(u, v)
			if i%3 == 0 {
				emit(v, u) // the same edge again, other orientation
			}
			if i%7 == 0 {
				emit(u, u)
			}
		}
	})
	add("isolated vertices", 40, false, func(emit func(u, v int)) {
		for _, e := range [][2]int{{3, 31}, {31, 17}, {17, 3}, {39, 0}} {
			emit(e[0], e[1])
		}
	})
	add("star", 29, false, func(emit func(u, v int)) {
		for v := 0; v < 29; v++ {
			if v != 11 {
				emit(11, v)
			}
		}
	})
	add("two components", 26, false, func(emit func(u, v int)) {
		// Evens form a ring, odds a clique on the first few: every rank
		// holds vertices of both.
		for v := 0; v < 26; v += 2 {
			emit(v, (v+2)%26)
		}
		for u := 1; u < 12; u += 2 {
			for v := u + 2; v < 12; v += 2 {
				emit(u, v)
			}
		}
	})
	add("rank without edges", 31, true, func(emit func(u, v int)) {
		// Only the low third of the vertex space is connected, and the
		// last rank contributes no edge of its own either.
		for i := 0; i < 40; i++ {
			emit(rng.Intn(10), rng.Intn(10))
		}
	})
	add("fewer vertices than ranks", max(2, p-1), false, func(emit func(u, v int)) {
		for v := 1; v < max(2, p-1); v++ {
			emit(v-1, v)
			emit(0, v)
		}
	})
	add("no edges at all", 9, false, func(func(u, v int)) {})
	return fams
}

// share returns rank r's slice of the family's edge list.
func (f *edgeFamily) share(r, p int) (e1, e2 []int) {
	if f.lastRankIdle && p > 1 {
		if r == p-1 {
			return nil, nil
		}
		p--
	}
	for i := range f.e1 {
		if i%p == r {
			e1, e2 = append(e1, f.e1[i]), append(e2, f.e2[i])
		}
	}
	return e1, e2
}

// asmStep is one assembled object and the rank's clock once it existed.
type asmStep struct {
	what  string
	g     *Graph
	ge    *GhostExchange
	clock float64
}

// diffGraphs names the first difference between two rank slices of a
// GeoCoL graph, or "". Empty and nil slices are the same thing, except
// for EdgeW, whose nil-ness gates a collective.
func diffGraphs(got, want *Graph) string {
	switch {
	case got.N != want.N || got.Home != want.Home:
		return fmt.Sprintf("N/Home %d %v, reference %d %v", got.N, got.Home, want.N, want.Home)
	case got.HasLink != want.HasLink || (got.Weights == nil) != (want.Weights == nil) || got.HasGeom != want.HasGeom:
		return "directive flags differ"
	case !slices.Equal(got.XAdj, want.XAdj):
		return fmt.Sprintf("XAdj %v, reference %v", got.XAdj, want.XAdj)
	case !slices.Equal(got.Adj, want.Adj):
		return fmt.Sprintf("Adj %v, reference %v", got.Adj, want.Adj)
	case (got.EdgeW == nil) != (want.EdgeW == nil) || !slices.Equal(got.EdgeW, want.EdgeW):
		return fmt.Sprintf("EdgeW %v, reference %v", got.EdgeW, want.EdgeW)
	case !slices.Equal(got.Weights, want.Weights):
		return fmt.Sprintf("Weights %v, reference %v", got.Weights, want.Weights)
	case got.NEdges != want.NEdges:
		return fmt.Sprintf("NEdges %d, reference %d", got.NEdges, want.NEdges)
	case got.Bytes() != want.Bytes():
		return fmt.Sprintf("Bytes %d, reference %d", got.Bytes(), want.Bytes())
	}
	return ""
}

// specExchange checks the exchange pattern ge of g against its
// definition, and the clock of the rank that derived it — before it,
// then now — against the charge the derivation promises. "" means ge
// is exactly the pattern of g.
//   - IDs is the sorted set of distinct off-rank neighbours;
//   - Loc[k] is Adj[k]-lo for a home neighbour, and otherwise encodes
//     the ghost slot whose id is Adj[k];
//   - the send list to rank r holds, ascending, the home vertices with
//     a neighbour homed on r, and recvStart[r] is where r's run of IDs
//     begins;
//   - the derivation charges localN + 2·len(IDs) words and nothing else.
func specExchange(c *machine.Ctx, wordTime float64, g *Graph, ge *GhostExchange, before float64) string {
	me, procs := c.Rank(), c.Procs()
	lo, localN := g.Home.Lo(me), g.LocalN(me)
	home := func(v int) bool { return g.Home.Owner(v) == me }
	var ids []int
	send := make([][]int, procs)
	for l := 0; l < localN; l++ {
		for _, v := range g.Neighbors(l) {
			if home(v) {
				continue
			}
			ids = append(ids, v)
			if r := g.Home.Owner(v); !slices.Contains(send[r], l) {
				send[r] = append(send[r], l)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	recvStart := make([]int, procs+1)
	for r := range recvStart {
		recvStart[r] = len(ids)
		if i := slices.IndexFunc(ids, func(v int) bool { return g.Home.Owner(v) >= r }); i >= 0 {
			recvStart[r] = i
		}
	}
	switch {
	case !slices.Equal(ge.IDs, ids):
		return fmt.Sprintf("IDs %v, want the distinct off-rank neighbours %v", ge.IDs, ids)
	case len(ge.Loc) != len(g.Adj):
		return fmt.Sprintf("%d Loc entries for %d adjacency slots", len(ge.Loc), len(g.Adj))
	case len(ge.send) != procs || !slices.EqualFunc(ge.send, send, slices.Equal[[]int]):
		return fmt.Sprintf("send lists %v, want %v", ge.send, send)
	case !slices.Equal(ge.recvStart, recvStart):
		return fmt.Sprintf("recvStart %v, want %v", ge.recvStart, recvStart)
	case c.Clock() != before+float64(localN+2*len(ids))*wordTime:
		return fmt.Sprintf("the derivation moved the clock from %v to %v, want a charge of %d words", before, c.Clock(), localN+2*len(ids))
	}
	for k, v := range g.Adj[:g.XAdj[localN]] {
		loc := ge.Loc[k]
		switch {
		case home(v) && loc != v-lo:
			return fmt.Sprintf("Loc[%d] = %d for home neighbour %d, want %d", k, loc, v, v-lo)
		case !home(v) && (loc >= 0 || -loc-1 >= len(ids) || ids[-loc-1] != v):
			return fmt.Sprintf("Loc[%d] = %d does not name the ghost slot of %d in %v", k, loc, v, ids)
		}
	}
	return ""
}

// pairUp is the clustering the differential tests contract under:
// global vertex v joins cluster v/2, so clusters straddle rank
// boundaries wherever a block has odd size.
func pairUp(g *Graph, rank int) (cmap []int, coarseN int) {
	lo := g.Home.Lo(rank)
	cmap = make([]int, g.LocalN(rank))
	for l := range cmap {
		cmap[l] = (lo + l) / 2
	}
	return cmap, (g.N + 1) / 2
}

// assemblyMode picks the code under test.
type assemblyMode int

const (
	viaReference assemblyMode = iota // the parent commit's bodies; exchange patterns one-shot
	viaOneShot                       // package-level wrappers, fresh scratch per call
	viaRecycled                      // one GhostScratch and CoarseAssembler for everything
)

// assembleAll runs, on every family in turn inside one machine run:
// CONSTRUCT with LINK, the exchange pattern, a contraction, the coarse
// graph's exchange pattern, and a second contraction (whose input has
// edge weights) — checks every exchange pattern against its
// specification and returns what each rank assembled.
func assembleAll(t *testing.T, backend machine.Backend, p int, mode assemblyMode) [][]asmStep {
	t.Helper()
	fams := edgeFamilies(p)
	traces := make([][]asmStep, p)
	cfg := machine.IPSC860(p)
	cfg.Backend = backend
	err := machine.Run(cfg, func(c *machine.Ctx) {
		var gs GhostScratch
		var asm CoarseAssembler
		var ref refAssembler
		build := func(f *edgeFamily) *Graph {
			e1, e2 := f.share(c.Rank(), p)
			if mode == viaReference {
				return refBuild(c, f.n, e1, e2)
			}
			return Build(c, f.n, WithLink(e1, e2))
		}
		exchange := func(g *Graph) *GhostExchange {
			before, derive := c.Clock(), NewGhostExchange
			if mode == viaRecycled {
				derive = gs.NewGhostExchange
			}
			ge := derive(c, g)
			if d := specExchange(c, cfg.WordTime, g, ge, before); d != "" {
				t.Errorf("%v P=%d mode %d rank %d: exchange pattern: %s", backend, p, mode, c.Rank(), d)
			}
			return ge
		}
		contract := func(g *Graph, ge *GhostExchange) *Graph {
			cmap, coarseN := pairUp(g, c.Rank())
			switch mode {
			case viaReference:
				return ref.refBuildCoarse(c, g, ge, cmap, coarseN)
			case viaOneShot:
				return BuildCoarse(c, g, ge, cmap, coarseN)
			}
			return asm.BuildCoarse(c, g, ge, cmap, coarseN)
		}
		tr := &traces[c.Rank()]
		add := func(f *edgeFamily, what string, g *Graph, ge *GhostExchange) {
			*tr = append(*tr, asmStep{f.name + ": " + what, g, ge, c.Clock()})
		}
		for i := range fams {
			f := &fams[i]
			g := build(f)
			add(f, "Build", g, nil)
			ge := exchange(g)
			add(f, "NewGhostExchange", nil, ge)
			g1 := contract(g, ge)
			add(f, "BuildCoarse", g1, nil)
			ge1 := exchange(g1)
			add(f, "NewGhostExchange (coarse)", nil, ge1)
			add(f, "BuildCoarse (weighted)", contract(g1, ge1), nil)
		}
	})
	if err != nil {
		t.Fatalf("%v P=%d mode %d: %v", backend, p, mode, err)
	}
	return traces
}

// TestAssemblyMatchesReference is the differential test of the
// rewritten assembly: Build's LINK path and BuildCoarse — through the
// one-shot wrappers and through one recycled scratch per rank — must
// produce exactly the graphs, Bytes() and per-rank virtual clocks of
// the bodies they replaced, and every exchange pattern between them
// must meet its specification (specExchange), on graphs that are not
// lattices, on both backends.
func TestAssemblyMatchesReference(t *testing.T) {
	for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
		for _, p := range []int{1, 2, 3, 8} {
			want := assembleAll(t, backend, p, viaReference)
			for _, mode := range []assemblyMode{viaOneShot, viaRecycled} {
				got := assembleAll(t, backend, p, mode)
				for r := range want {
					for i, w := range want[r] {
						s := got[r][i]
						d := ""
						if w.g != nil {
							d = diffGraphs(s.g, w.g)
						}
						if d == "" && s.clock != w.clock {
							d = fmt.Sprintf("clock %v, reference %v", s.clock, w.clock)
						}
						if d != "" {
							t.Errorf("%v P=%d mode %d rank %d, %s: %s", backend, p, mode, r, w.what, d)
						}
					}
				}
			}
		}
	}
}

// TestBuildCoarseWeightsAreCounts pins the invariant that makes
// BuildCoarse's results independent of the order in which it sums: a
// CONSTRUCT-built graph has no edge weights, so down a whole ladder
// every coarse edge weight is the number of finest-level edges it
// stands for — a small integer, exactly.
func TestBuildCoarseWeightsAreCounts(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		fams := edgeFamilies(p)
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			for i := range fams {
				f := &fams[i]
				e1, e2 := f.share(c.Rank(), p)
				g := Build(c, f.n, WithLink(e1, e2))
				if g.EdgeW != nil {
					t.Errorf("%s: CONSTRUCT produced edge weights", f.name)
				}
				fine := g.Gather(c)
				// top[v] is the current-level cluster of finest vertex v.
				top := make([]int, f.n)
				for v := range top {
					top[v] = v
				}
				for level := 0; level < 3 && g.N > 1; level++ {
					cmap, coarseN := pairUp(g, c.Rank())
					g = BuildCoarse(c, g, NewGhostExchange(c, g), cmap, coarseN)
					for v := range top {
						top[v] /= 2
					}
					count := map[[2]int]float64{}
					for v := 0; v < f.n; v++ {
						for _, u := range fine.Adj[fine.XAdj[v]:fine.XAdj[v+1]] {
							if top[u] != top[v] {
								count[[2]int{top[v], top[u]}]++
							}
						}
					}
					lo := g.Home.Lo(c.Rank())
					for l := 0; l < g.LocalN(c.Rank()); l++ {
						for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
							if want := count[[2]int{lo + l, g.Adj[k]}]; g.EdgeW[k] != want {
								t.Errorf("P=%d %s level %d: weight of coarse edge (%d,%d) = %v, want the count %v",
									p, f.name, level, lo+l, g.Adj[k], g.EdgeW[k], want)
							}
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildCoarseSumsInArrivalOrder checks what BuildCoarse promises a
// caller whose fine graph does carry fractional edge weights: the
// weights of one coarse edge are added in arrival order — source rank,
// then position in its message, which under a BLOCK home is fine
// vertex order, then adjacency order. The weights are picked so that
// any other order rounds differently.
func TestBuildCoarseSumsInArrivalOrder(t *testing.T) {
	// Three clusters of size consecutive vertices; every vertex links to
	// its counterpart in each other cluster. The first contribution to a
	// coarse edge weighs 1, the others 2^-53: added after the 1 each of
	// them is rounded away, added before it they survive. Size 8 keeps a
	// coarse row within one insertion-sorted block of the library's
	// stable sort, size 40 makes it merge blocks.
	for _, size := range []int{8, 40} {
		n := 3 * size
		var e1, e2 []int
		for v := 0; v < n; v++ {
			for d := size; d < n; d += size {
				if u := (v + d) % n; v < u {
					e1, e2 = append(e1, v), append(e2, u)
				}
			}
		}
		weight := func(v, u int) float64 {
			if v%size == 0 && u%size == 0 {
				return 1
			}
			return 1.0 / (1 << 53)
		}
		for _, p := range []int{1, 2, 3} {
			err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
				var me1, me2 []int
				for i := range e1 {
					if i%p == c.Rank() {
						me1, me2 = append(me1, e1[i]), append(me2, e2[i])
					}
				}
				g := Build(c, n, WithLink(me1, me2))
				lo := g.Home.Lo(c.Rank())
				g.EdgeW = make([]float64, len(g.Adj))
				cmap := make([]int, g.LocalN(c.Rank()))
				for l := range cmap {
					cmap[l] = (lo + l) / size
					for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
						g.EdgeW[k] = weight(lo+l, g.Adj[k])
					}
				}
				fine, fullCmap := g.Gather(c), c.AllGatherInts(cmap)
				want := map[[2]int]float64{}
				for v := 0; v < n; v++ {
					for k := fine.XAdj[v]; k < fine.XAdj[v+1]; k++ {
						if cv, cu := fullCmap[v], fullCmap[fine.Adj[k]]; cv != cu {
							want[[2]int{cv, cu}] += fine.EdgeW[k]
						}
					}
				}
				coarse := BuildCoarse(c, g, NewGhostExchange(c, g), cmap, 3)
				lo2 := coarse.Home.Lo(c.Rank())
				for l := 0; l < coarse.LocalN(c.Rank()); l++ {
					if coarse.Degree(l) != 2 {
						t.Errorf("size %d P=%d coarse vertex %d has degree %d, want 2", size, p, lo2+l, coarse.Degree(l))
					}
					for k := coarse.XAdj[l]; k < coarse.XAdj[l+1]; k++ {
						w := want[[2]int{lo2 + l, coarse.Adj[k]}]
						if w != 1 {
							t.Errorf("the oracle's own sum is %v: the weights no longer discriminate", w)
						}
						if coarse.EdgeW[k] != w {
							t.Errorf("size %d P=%d coarse edge (%d,%d): weight %v, want %v summed in arrival order",
								size, p, lo2+l, coarse.Adj[k], coarse.EdgeW[k], w)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
