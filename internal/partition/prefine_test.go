package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"chaos/internal/csr"
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/xrand"
)

// distCut computes the exact weighted edge cut of a distributed
// partition (test helper; collective). It finds a ghost's slot by
// searching the sorted ids rather than through Loc, which the refiners
// it checks read.
func distCut(c *machine.Ctx, g *geocol.Graph, ge *geocol.GhostExchange, part []int) float64 {
	me := c.Rank()
	lo := g.Home.Lo(me)
	gp := ge.PushInts(c, part)
	w := 0.0
	for l := 0; l < g.LocalN(me); l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			u := g.Adj[k]
			var q int
			if g.Home.Owner(u) == me {
				q = part[u-lo]
			} else {
				q = gp[sort.SearchInts(ge.IDs, u)]
			}
			if q != part[l] {
				if g.EdgeW != nil {
					w += g.EdgeW[k]
				} else {
					w++
				}
			}
		}
	}
	return c.SumFloat(w) / 2
}

// TestParallelFMImprovesSeed drives the parallel FM refiner directly on
// a BLOCK-seeded partition of a distributed mesh: the cut must strictly
// improve, the part weights must stay inside the 7% balance window the
// refiner promises, and the whole run must be deterministic.
func TestParallelFMImprovesSeed(t *testing.T) {
	m := mesh.Generate(4000, 7)
	const p, nparts = 4, 4
	run := func() (before, after float64, counts []int) {
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			ge := geocol.NewGhostExchange(c, g)
			b := dist.NewBlock(g.N, nparts)
			lo := g.Home.Lo(c.Rank())
			part := make([]int, g.LocalN(c.Rank()))
			for l := range part {
				part[l] = b.Owner(lo + l)
			}
			cut0 := distCut(c, g, ge, part)
			parallelFM(c, new(fmScratch), g, ge, part, nparts, 4, 0.07)
			cut1 := distCut(c, g, ge, part)
			full := c.AllGatherInts(part)
			if c.Rank() == 0 {
				before, after = cut0, cut1
				counts = make([]int, nparts)
				for _, q := range full {
					counts[q]++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return before, after, counts
	}
	before, after, counts := run()
	if after >= before {
		t.Errorf("parallel FM did not improve the BLOCK seed: cut %.0f -> %.0f", before, after)
	}
	ideal := float64(m.NNode) / nparts
	for q, n := range counts {
		if float64(n) < ideal*0.93 || float64(n) > ideal*1.07 {
			t.Errorf("part %d holds %d vertices, outside the 7%% window around %.0f", q, n, ideal)
		}
	}
	b2, a2, counts2 := run()
	if b2 != before || a2 != after {
		t.Errorf("parallel FM is not deterministic: cuts (%.0f,%.0f) vs (%.0f,%.0f)", before, after, b2, a2)
	}
	for q := range counts {
		if counts[q] != counts2[q] {
			t.Fatalf("parallel FM part sizes differ across runs: %v vs %v", counts, counts2)
		}
	}
}

// TestKwayRefineImprovesSeed checks the serial k-way FM on a gathered
// graph: strict improvement from a BLOCK seed, the balance window
// respected, and no-op on a single part.
func TestKwayRefineImprovesSeed(t *testing.T) {
	m := mesh.Generate(2000, 5)
	var f *csr.Graph
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1, m.E2))
		f = g.Gather(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	const nparts = 4
	b := dist.NewBlock(f.Len(), nparts)
	part := make([]int, f.Len())
	for v := range part {
		part[v] = b.Owner(v)
	}
	before := CutEdges(f.XAdj, f.Adj, part)
	kwayRefine(new(kwayScratch), f, part, nparts, 8, 0.07)
	after := CutEdges(f.XAdj, f.Adj, part)
	if after >= before {
		t.Errorf("kwayRefine did not improve the BLOCK seed: cut %d -> %d", before, after)
	}
	counts := make([]int, nparts)
	for _, q := range part {
		counts[q]++
	}
	ideal := float64(f.Len()) / nparts
	for q, n := range counts {
		if float64(n) < ideal*0.93 || float64(n) > ideal*1.07 {
			t.Errorf("part %d holds %d vertices, outside the 7%% window around %.0f", q, n, ideal)
		}
	}

	// nparts=1: no boundary, no moves, no panic.
	one := make([]int, f.Len())
	kwayRefine(new(kwayScratch), f, one, 1, 2, 0.07)
	for v, q := range one {
		if q != 0 {
			t.Fatalf("kwayRefine invented a part for vertex %d: %d", v, q)
		}
	}
}

// wedge is one undirected weighted edge of a hand-built CSR.
type wedge struct {
	u, v int
	w    float64
}

// csrBlock returns this rank's block of the symmetric CSR of edges over
// n vertices — each row in edge order, a self-loop stored once — with
// vertex weights vw.
func csrBlock(c *machine.Ctx, n int, edges []wedge, vw func(v int) float64) *geocol.Graph {
	home := dist.NewBlock(n, c.Procs())
	lo, hi := home.Lo(c.Rank()), home.Hi(c.Rank())
	adj, ew := make([][]int, hi-lo), make([][]float64, hi-lo)
	add := func(u, v int, w float64) {
		if lo <= u && u < hi {
			adj[u-lo], ew[u-lo] = append(adj[u-lo], v), append(ew[u-lo], w)
		}
	}
	for _, e := range edges {
		add(e.u, e.v, e.w)
		if e.u != e.v {
			add(e.v, e.u, e.w)
		}
	}
	g := &geocol.Graph{N: n, Home: home, HasLink: true, Graph: csr.Graph{XAdj: []int{0}, Weights: []float64{}}}
	for l := range adj {
		g.Adj, g.EdgeW = append(g.Adj, adj[l]...), append(g.EdgeW, ew[l]...)
		g.XAdj = append(g.XAdj, len(g.Adj))
		g.Weights = append(g.Weights, vw(lo+l))
	}
	return g
}

// hostileCSR returns this rank's block of a symmetric weighted CSR
// over n vertices that geocol.Build never produces: unsorted rows,
// self-loops, multi-edges (a pair repeated, possibly with another
// weight), a star centred on vertex 0, isolated vertices (the last n/8
// ids get no edge), edge weights from {0, 0.1, 0.5, 1, 2.25} and vertex
// weights from {0, 0.5, 1, 3}. Every rank derives the same global edge
// list from seed.
func hostileCSR(c *machine.Ctx, n int, seed uint64) *geocol.Graph {
	rng := xrand.New(seed)
	ews := []float64{0, 0.1, 0.5, 1, 2.25}
	vws := []float64{0, 0.5, 1, 3}
	live := n - n/8
	var edges []wedge
	for v := 1; v < live; v += 1 + rng.Intn(3) {
		edges = append(edges, wedge{0, v, ews[rng.Intn(len(ews))]})
	}
	for i := 0; i < 2*live; i++ {
		u, v := rng.Intn(live), rng.Intn(live)
		if rng.Intn(10) == 0 {
			v = u
		}
		edges = append(edges, wedge{u, v, ews[rng.Intn(len(ews))]})
		if rng.Intn(6) == 0 {
			edges = append(edges, wedge{u, v, ews[rng.Intn(len(ews))]})
		}
	}
	return csrBlock(c, n, edges, func(v int) float64 { return vws[xrand.Hash64(seed<<32|uint64(v))%uint64(len(vws))] })
}

// fmAudit returns refiner scratch whose audit seam checks, at every
// selection and on return, parallelFM's cache against its definition
// recomputed from the gathered part vector: each vertex's cut
// contribution, its best move per direction rule (highest gain, the
// lower part id on a tie, none where the rule admits no adjacent part)
// and its boundary flag; and the synced global cut against a recount.
// The first failure is recorded in *fail; *audits counts the checks.
func fmAudit(g *geocol.Graph, fail *string, audits *int) *fmScratch {
	s := new(fmScratch)
	s.audit = func(c *machine.Ctx, part []int, cut float64) {
		*audits++
		full := c.AllGatherInts(part)
		lo := g.Home.Lo(c.Rank())
		recount := 0.0
		for l := range part {
			p := full[lo+l]
			intW, toPart := 0.0, map[int]float64{}
			want := fmVertex{gain: [2]float64{math.Inf(-1), math.Inf(-1)}, to: [2]int32{-1, -1}}
			for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
				if q := full[g.Adj[k]]; q == p {
					intW += g.EdgeW[k]
				} else {
					toPart[q] += g.EdgeW[k]
					want.cut += g.EdgeW[k]
				}
			}
			for q, w := range toPart {
				dir := 0
				if q < p {
					dir = 1
				}
				if gain := w - intW; want.to[dir] < 0 || gain > want.gain[dir] || (gain == want.gain[dir] && q < int(want.to[dir])) {
					want.gain[dir], want.to[dir] = gain, int32(q)
				}
			}
			if got := s.vs[l]; (got != want || got.boundary() != (len(toPart) > 0)) && *fail == "" {
				*fail = fmt.Sprintf("check %d, vertex %d in part %d: cached %+v (boundary %v), fresh scan %+v",
					*audits, lo+l, p, got, got.boundary(), want)
			}
			recount += want.cut
		}
		if recount = c.SumFloat(recount) / 2; math.Abs(cut-recount) > 1e-9*(1+recount) && *fail == "" {
			*fail = fmt.Sprintf("check %d: synced cut %v, recount %v", *audits, cut, recount)
		}
	}
	return s
}

// TestParallelFMCacheAudit runs the distributed FM refiner with its
// audit seam over hostile graphs from random starting partitions, with
// nparts up to four times a rank's slice, at P ∈ {2, 3, 8} on both
// backends: every selection must read a cache equal to a fresh scan,
// the synced cut must equal a recount, and both backends must refine
// to the same partition.
func TestParallelFMCacheAudit(t *testing.T) {
	cases := []struct{ n, nparts int }{{24, 12}, {40, 7}, {120, 5}, {200, 2}, {200, 3}, {400, 4}}
	audited, changed := 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, tc := range cases {
			for _, p := range []int{2, 3, 8} {
				var final [2][]int
				for b, backend := range []machine.Backend{machine.Simulated, machine.Real} {
					cfg := machine.Zero(p)
					cfg.Backend = backend
					fails, audits := make([]string, p), make([]int, p)
					var initial []int
					err := machine.Run(cfg, func(c *machine.Ctx) {
						g := hostileCSR(c, tc.n, seed)
						lo := g.Home.Lo(c.Rank())
						part := make([]int, g.LocalN(c.Rank()))
						for l := range part {
							part[l] = int(xrand.Hash64(seed<<40|uint64(lo+l)) % uint64(tc.nparts))
						}
						start := c.AllGatherInts(part)
						r := c.Rank()
						parallelFM(c, fmAudit(g, &fails[r], &audits[r]), g, geocol.NewGhostExchange(c, g), part, tc.nparts, 6, 0.07)
						if full := c.AllGatherInts(part); r == 0 {
							initial, final[b] = start, full
						}
					})
					if err != nil {
						t.Fatalf("seed %d n=%d P=%d %v: %v", seed, tc.n, p, backend, err)
					}
					for r, f := range fails {
						if f != "" {
							t.Errorf("seed %d n=%d nparts=%d P=%d %v rank %d: %s", seed, tc.n, tc.nparts, p, backend, r, f)
						}
					}
					audited += audits[0]
					if !slices.Equal(initial, final[b]) {
						changed++
					}
					for v, q := range final[b] {
						if q < 0 || q >= tc.nparts {
							t.Fatalf("seed %d n=%d P=%d %v: vertex %d in part %d", seed, tc.n, p, backend, v, q)
						}
					}
				}
				if !slices.Equal(final[0], final[1]) {
					t.Errorf("seed %d n=%d P=%d: Simulated and Real refined to different partitions", seed, tc.n, p)
				}
			}
		}
	}
	if audited == 0 || changed == 0 {
		t.Fatalf("vacuous audit: %d checks, %d runs moved a vertex", audited, changed)
	}
	t.Logf("%d audits on rank 0; %d of 144 runs moved vertices", audited, changed)
}

// TestParallelFMGlobalUndoAudit drives the refiner into a global undo
// that moves vertices, which random inputs almost never do: on two
// ranks, u (rank 0) moves toward v's part while v (rank 1) leaves it,
// each on a gain that assumed the other stays, and with an unrelated
// move m on rank 0 the cut rises from 8.5 to 11. Every other vertex
// is too heavy for the balance budgets, so nothing repairs it, and the
// pass must end by undoing all three moves. The audit must find every
// vertex the undo affected refreshed: the movers, their same-rank
// neighbours a, m2 and m3, and z, whose only neighbour u is remote.
func TestParallelFMGlobalUndoAudit(t *testing.T) {
	// Rank 0 holds u, a, m, m2, m3 and rank 1 v, b, y, z and vertex 9,
	// an isolated filler of part 2; weight and start list the vertices
	// in that order.
	const u, a, m, m2, m3, v, b, y, z = 0, 1, 2, 3, 4, 5, 6, 7, 8
	edges := []wedge{{u, a, 4}, {u, v, 5}, {u, z, 0.5}, {v, b, 1}, {v, y, 1.5}, {m, m2, 1.5}, {m, m3, 1}}
	weight := []float64{1, 100, 1, 51, 100, 1, 100, 101, 50, 101}
	start := []int{0, 0, 0, 1, 0, 1, 1, 2, 1, 2}
	for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
		cfg := machine.Zero(2)
		cfg.Backend = backend
		var fails [2]string
		var audits [2]int
		var moved [2]bool
		var final []int
		err := machine.Run(cfg, func(c *machine.Ctx) {
			r := c.Rank()
			g := csrBlock(c, len(weight), edges, func(v int) float64 { return weight[v] })
			lo := g.Home.Lo(r)
			part := slices.Clone(start[lo : lo+g.LocalN(r)])
			s := fmAudit(g, &fails[r], &audits[r])
			check := s.audit
			s.audit = func(c *machine.Ctx, part []int, cut float64) {
				check(c, part, cut)
				moved[r] = moved[r] || !slices.Equal(part, start[lo:lo+len(part)])
			}
			parallelFM(c, s, g, geocol.NewGhostExchange(c, g), part, 3, 2, 0.2)
			if full := c.AllGatherInts(part); r == 0 {
				final = full
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		for r, f := range fails {
			if f != "" {
				t.Errorf("%v rank %d: %s", backend, r, f)
			}
		}
		if !moved[0] || !moved[1] || !slices.Equal(final, start) {
			t.Errorf("%v: no global undo of moved vertices (moved %v, final %v, start %v)", backend, moved, final, start)
		}
	}
}
