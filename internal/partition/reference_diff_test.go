package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// hostileGraph is one input of the differential tests: an edge list
// over n vertices, dealt to the ranks edge by edge.
type hostileGraph struct {
	name   string
	n      int
	e1, e2 []int
}

// hostileGraphs are graphs that are not lattices: duplicate edges and
// self-loops, isolated vertices, a star, two components, a part of the
// vertex space (and so a rank) without edges, fewer vertices than
// ranks, and a graph dense enough that matching and contraction do
// real work.
func hostileGraphs(p int) []hostileGraph {
	rng := rand.New(rand.NewSource(15))
	var gs []hostileGraph
	add := func(name string, n int, gen func(emit func(u, v int))) {
		g := hostileGraph{name: name, n: n}
		gen(func(u, v int) { g.e1, g.e2 = append(g.e1, u), append(g.e2, v) })
		gs = append(gs, g)
	}
	add("random with duplicates and self-loops", 67, func(emit func(u, v int)) {
		for i := 0; i < 400; i++ {
			u, v := rng.Intn(67), rng.Intn(67)
			emit(u, v)
			if i%4 == 0 {
				emit(v, u)
			}
			if i%9 == 0 {
				emit(v, v)
			}
		}
	})
	add("isolated vertices", 45, func(emit func(u, v int)) {
		for _, e := range [][2]int{{3, 31}, {31, 17}, {17, 3}, {44, 0}, {20, 21}} {
			emit(e[0], e[1])
		}
	})
	add("star", 33, func(emit func(u, v int)) {
		for v := 0; v < 33; v++ {
			if v != 5 {
				emit(5, v)
			}
		}
	})
	add("two components", 30, func(emit func(u, v int)) {
		for v := 0; v < 30; v += 2 {
			emit(v, (v+2)%30)
			emit(v, (v+4)%30)
		}
		for u := 1; u < 16; u += 2 {
			for v := u + 2; v < 16; v += 2 {
				emit(u, v)
			}
		}
	})
	add("edges in the low third only", 36, func(emit func(u, v int)) {
		for i := 0; i < 60; i++ {
			emit(rng.Intn(12), rng.Intn(12))
		}
	})
	add("fewer vertices than ranks", max(2, p-1), func(emit func(u, v int)) {
		for v := 1; v < max(2, p-1); v++ {
			emit(v-1, v)
			emit(0, v)
		}
	})
	return gs
}

// share returns rank r's slice of the edge list.
func (h *hostileGraph) share(r, p int) (e1, e2 []int) {
	for i := range h.e1 {
		if i%p == r {
			e1, e2 = append(e1, h.e1[i]), append(e2, h.e2[i])
		}
	}
	return e1, e2
}

// ladderStep is one result of the per-level machinery with the rank's
// clock once it existed.
type ladderStep struct {
	what  string
	ints  []int
	clock float64
}

// levelOps is the per-level machinery of the distributed V-cycle, as
// rewritten or as the parent commit had it.
type levelOps struct {
	match    func(c *machine.Ctx, g *geocol.Graph, ge *geocol.GhostExchange, maxW float64, seed uint64) []int
	number   func(c *machine.Ctx, g *geocol.Graph, match []int) ([]int, int)
	restrict func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, part []int) []int
	project  func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, cpart []int) []int
	kway     func(c *machine.Ctx, g *geocol.Graph, part []int, nparts int)
}

// referenceOps binds the parent commit's bodies to their own scratch.
func referenceOps() levelOps {
	var ms refMatchScratch
	var ps refProjScratch
	ar := &arena{}
	return levelOps{
		match: func(c *machine.Ctx, g *geocol.Graph, ge *geocol.GhostExchange, maxW float64, seed uint64) []int {
			return refDistHeavyEdgeMatch(c, &ms, g, ge, maxW, seed)
		},
		number: func(c *machine.Ctx, g *geocol.Graph, match []int) ([]int, int) {
			return refNumberCoarse(c, &ms, g, match)
		},
		restrict: func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, part []int) []int {
			return refRestrictPart(c, &ps, fine, cmap, coarse.Home, part)
		},
		project: func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, cpart []int) []int {
			return refProjectPart(c, &ps, fine, cmap, coarse.Home, cpart)
		},
		kway: func(c *machine.Ctx, g *geocol.Graph, part []int, nparts int) {
			refSerialKway(c, ar, g, part, nparts, 8, 0.07)
		},
	}
}

// currentOps binds today's bodies to an arena: the same one for every
// call (recycled), or a fresh one per call (one-shot).
func currentOps(recycled bool) levelOps {
	shared := &arena{}
	ar := func() *arena {
		if recycled {
			return shared
		}
		return &arena{}
	}
	// A matching and the numbering that consumes it share one scratch
	// even in the one-shot form: the match vector lives there.
	var matchArena *arena
	return levelOps{
		match: func(c *machine.Ctx, g *geocol.Graph, ge *geocol.GhostExchange, maxW float64, seed uint64) []int {
			matchArena = ar()
			return distHeavyEdgeMatch(c, &matchArena.match, g, ge, maxW, seed)
		},
		number: func(c *machine.Ctx, g *geocol.Graph, match []int) ([]int, int) {
			return numberCoarse(c, &matchArena.match, g, match)
		},
		restrict: func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, part []int) []int {
			return restrictPart(c, &ar().proj, fine, cmap, coarse.Home, part)
		},
		project: func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, cpart []int) []int {
			return projectPart(c, &ar().proj, fine, cmap, coarse.Home, cpart)
		},
		kway: func(c *machine.Ctx, g *geocol.Graph, part []int, nparts int) {
			serialKway(c, ar(), g, part, nparts, 8, 0.07)
		},
	}
}

// runLevels drives one coarsening level and back over every hostile
// graph inside one machine run: matching, coarse numbering, a weighted
// matching of the coarse graph, restriction of a partition to the
// coarse graph, the replicated k-way polish there, and projection back.
func runLevels(t *testing.T, p int, ops func() levelOps) [][]ladderStep {
	t.Helper()
	const nparts = 3
	graphs := hostileGraphs(p)
	traces := make([][]ladderStep, p)
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		op := ops()
		tr := &traces[c.Rank()]
		for i := range graphs {
			h := &graphs[i]
			add := func(what string, ints []int) {
				*tr = append(*tr, ladderStep{h.name + ": " + what, slices.Clone(ints), c.Clock()})
			}
			e1, e2 := h.share(c.Rank(), p)
			g := geocol.Build(c, h.n, geocol.WithLink(e1, e2))
			ge := geocol.NewGhostExchange(c, g)
			lo := g.Home.Lo(c.Rank())

			match := op.match(c, g, ge, 0, 42)
			add("matching", match)
			cmap, coarseN := op.number(c, g, match)
			add("coarse numbering", append(slices.Clone(cmap), coarseN))
			coarse := geocol.BuildCoarse(c, g, ge, cmap, coarseN)

			part := make([]int, g.LocalN(c.Rank()))
			for l := range part {
				part[l] = (lo + l) % nparts
			}

			// The coarse graph carries LOAD and edge weights, so this
			// matching pushes ghost weights and hits the weight cap.
			cge := geocol.NewGhostExchange(c, coarse)
			cmatch := op.match(c, coarse, cge, 3, 99)
			add("weighted matching", cmatch)
			ccmap, ccN := op.number(c, coarse, cmatch)
			add("second numbering", append(slices.Clone(ccmap), ccN))

			cpart := op.restrict(c, g, cmap, coarse, part)
			add("restriction", cpart)
			if coarse.N >= nparts {
				op.kway(c, coarse, cpart, nparts)
				add("k-way polish", cpart)
			}
			add("projection", op.project(c, g, cmap, coarse, cpart))
		}
	})
	if err != nil {
		t.Fatalf("P=%d: %v", p, err)
	}
	return traces
}

// TestLevelMachineryMatchesReference is the differential test of the
// count → prefix-sum → fill routing (matching proposals, coarse-id
// notifications, restriction and projection rows) and of the k-way
// polish computed once and shared: on graphs that are not lattices, at
// P ∈ {1,2,3,8}, with a recycled arena and with a fresh one per call,
// every result and every per-rank virtual clock must equal the parent
// commit's, to the last bit.
func TestLevelMachineryMatchesReference(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		want := runLevels(t, p, referenceOps)
		for _, recycled := range []bool{false, true} {
			got := runLevels(t, p, func() levelOps { return currentOps(recycled) })
			for r := range want {
				for i, w := range want[r] {
					s := got[r][i]
					switch {
					case !slices.Equal(s.ints, w.ints):
						t.Errorf("P=%d recycled=%v rank %d, %s: %v, reference %v", p, recycled, r, w.what, s.ints, w.ints)
					case s.clock != w.clock:
						t.Errorf("P=%d recycled=%v rank %d, %s: clock %v, reference %v", p, recycled, r, w.what, s.clock, w.clock)
					}
				}
			}
		}
	}
}

// diffSubgraphs names the first difference between two induced
// subgraphs, or "". Whether ew is nil (unit weights) only means
// something where there is an edge to weigh.
func diffSubgraphs(got, want *subgraph) string {
	switch {
	case got.Len() != want.Len():
		return fmt.Sprintf("n %d, reference %d", got.Len(), want.Len())
	case !slices.Equal(got.XAdj, want.XAdj):
		return fmt.Sprintf("xadj %v, reference %v", got.XAdj, want.XAdj)
	case !slices.Equal(got.Adj, want.Adj):
		return fmt.Sprintf("adj %v, reference %v", got.Adj, want.Adj)
	case len(want.Adj) > 0 && (got.EdgeW == nil) != (want.EdgeW == nil) || !slices.Equal(got.EdgeW, want.EdgeW):
		return fmt.Sprintf("ew %v, reference %v", got.EdgeW, want.EdgeW)
	case !slices.Equal(got.Weights, want.Weights):
		return fmt.Sprintf("w %v, reference %v", got.Weights, want.Weights)
	case !slices.Equal(got.orig, want.orig):
		return fmt.Sprintf("orig %v, reference %v", got.orig, want.orig)
	case got.flops != want.flops:
		return fmt.Sprintf("flops %d, reference %d", got.flops, want.flops)
	}
	return ""
}

// TestInduceMatchesReference induces random vertex subsets, in random
// order, of every hostile graph and of its weighted contraction —
// through one scratch recycled across all of them, so the stamped
// scatter array sees graphs growing and shrinking under it — and
// demands the reference's subgraph every time.
func TestInduceMatchesReference(t *testing.T) {
	var fulls []*csr.Graph
	graphs := hostileGraphs(1)
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		for i := range graphs {
			h := &graphs[i]
			g := geocol.Build(c, h.n, geocol.WithLink(h.e1, h.e2))
			fulls = append(fulls, g.GatherTo(c, machine.AllRanks))
			cmap := make([]int, h.n)
			for v := range cmap {
				cmap[v] = v / 3
			}
			coarse := geocol.BuildCoarse(c, g, geocol.NewGhostExchange(c, g), cmap, (h.n+2)/3)
			fulls = append(fulls, coarse.GatherTo(c, machine.AllRanks))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var s csr.Scratch
	for round := 0; round < 4; round++ {
		for fi, f := range fulls {
			for _, frac := range []float64{1, 0.5, 0.1, 0} {
				verts := rng.Perm(f.Len())[:int(frac*float64(f.Len()))]
				got, want := induce(&s, f, slices.Clone(verts)), refInduce(f, verts)
				if d := diffSubgraphs(got, want); d != "" {
					t.Fatalf("round %d graph %d (N=%d) subset of %d: %s", round, fi, f.Len(), len(verts), d)
				}
				// The CSR was sized by the subset's degree sum in f, once.
				degSum := 0
				for _, v := range verts {
					degSum += f.XAdj[v+1] - f.XAdj[v]
				}
				if cap(got.Adj) != degSum {
					t.Fatalf("round %d graph %d subset of %d: adj capacity %d, want the degree sum %d", round, fi, len(verts), cap(got.Adj), degSum)
				}
			}
		}
	}
}
