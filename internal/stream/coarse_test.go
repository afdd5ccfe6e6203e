package stream

import (
	"slices"
	"sort"
	"testing"

	"chaos/internal/csr"
	"chaos/internal/xrand"
)

// TestPairCountMatchesMap drives the pass-2 edge counter with cluster
// ids above 2^32 and with keys whose hashes share a slot, and checks
// every count against a Go-map model. At such ids the single key
// from*nc+to the counter replaced wraps around int64: two different
// pairs share it, which the pair key keeps apart.
func TestPairCountMatchesMap(t *testing.T) {
	const big = 1 << 33
	nc := int64(1) << 34 // clusters can be singletons, so nc can reach nvert
	if k1, k0 := int64(big)*nc+0, int64(0)*nc+0; k1 != k0 {
		t.Fatalf("from*nc+to keys %d and %d differ; the overflow case is gone", k1, k0)
	}

	// The keys: (big, 0) and (0, 0), which the old key confused, and
	// eleven pairs (a, a+1) whose hashes pick the home slot of (big, 0)
	// in the first table (find on the empty table returns a key's
	// home), each with its reverse.
	pc := &pairCount{slots: make([]pairSlot, 16)}
	target := pc.find(big, 0)
	keys := [][2]int{{big, 0}, {0, 0}}
	for a := big; len(keys) < 24; a++ {
		if pc.find(a, a+1) == target {
			keys = append(keys, [2]int{a, a + 1}, [2]int{a + 1, a})
		}
	}
	rng := xrand.New(77)
	for i := 0; i < 200; i++ {
		keys = append(keys, [2]int{big + rng.Intn(1<<20)<<12, rng.Intn(big)})
	}

	model := map[[2]int]int{}
	for i := 0; i < 5000; i++ {
		k := keys[rng.Intn(len(keys))]
		pc.inc(k[0], k[1])
		model[k]++
	}
	if pc.used != len(model) {
		t.Fatalf("used = %d, model holds %d pairs", pc.used, len(model))
	}
	for k, want := range model {
		if got := pc.find(k[0], k[1]).n; got != want {
			t.Errorf("pair %v counted %d, want %d", k, got, want)
		}
	}
	seen := 0
	for _, s := range pc.slots {
		if s.n > 0 {
			seen++
			if model[[2]int{s.from, s.to}] != s.n {
				t.Errorf("slot %v not in the model", s)
			}
		}
	}
	if seen != len(model) {
		t.Errorf("%d occupied slots, want %d", seen, len(model))
	}
	if pc.find(big, 1).n != 0 {
		t.Error("an absent pair has a count")
	}
}

// buildCoarseOracle is the model build the pair counter replaced: a
// map keyed by from*nc+to folded into a CSR through a sort of all keys.
func buildCoarseOracle(nc int, vw []float64, acc map[int64]float64) *csr.Graph {
	keys := make([]int64, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	g := &csr.Graph{XAdj: make([]int, nc+1), Weights: vw}
	for _, k := range keys {
		g.XAdj[k/int64(nc)+1]++
		g.Adj = append(g.Adj, int(k%int64(nc)))
		g.EdgeW = append(g.EdgeW, acc[k])
	}
	for c := 0; c < nc; c++ {
		g.XAdj[c+1] += g.XAdj[c]
	}
	return g
}

// contractOracle is the contraction the stamp-array assembly replaced:
// accumulate into a map over every fine edge, then buildCoarseOracle.
func contractOracle(g *csr.Graph, cmap []int, nc int) *csr.Graph {
	vw := make([]float64, nc)
	acc := map[int64]float64{}
	for v := 0; v < g.Len(); v++ {
		vw[cmap[v]] += g.Weights[v]
		cv := int64(cmap[v])
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			if cu := int64(cmap[g.Adj[j]]); cu != cv {
				acc[cv*int64(nc)+cu] += g.EdgeW[j]
			}
		}
	}
	return buildCoarseOracle(nc, vw, acc)
}

func sameCoarse(a, b *csr.Graph) bool {
	return slices.Equal(a.XAdj, b.XAdj) && slices.Equal(a.Adj, b.Adj) &&
		slices.Equal(a.EdgeW, b.EdgeW) && slices.Equal(a.Weights, b.Weights)
}

// TestCoarseAssemblyMatchesOracle builds the coarse model of every
// pinGraphs graph by pair counting and contracts it level by level by
// stamping, and demands the exact CSR — rows, order, edge and
// fractional vertex weights — the map-and-sort oracles give.
func TestCoarseAssemblyMatchesOracle(t *testing.T) {
	for _, gr := range pinGraphs() {
		n := len(gr.xadj) - 1
		cluster := make([]int, n)
		for v := range cluster {
			cluster[v] = -1
		}
		cl := &clusterer{cluster: cluster, maxW: 4.5}
		for v := 0; v < n; v++ {
			cl.assign(v, gr.adj[gr.xadj[v]:gr.xadj[v+1]], 0.3+float64(v%7)/9)
		}
		nc := len(cl.w)
		pc := &pairCount{}
		acc := map[int64]float64{}
		for v := 0; v < n; v++ {
			for _, u := range gr.adj[gr.xadj[v]:gr.xadj[v+1]] {
				if cv, cu := cluster[v], cluster[u]; cv != cu {
					pc.inc(cv, cu)
					acc[int64(cv)*int64(nc)+int64(cu)]++
				}
			}
		}
		var cs csr.Scratch
		g := pc.coarse(&cs, cl.w)
		if !sameCoarse(&g, buildCoarseOracle(nc, cl.w, acc)) {
			t.Fatalf("%s: pair-counted model differs from the map-and-sort oracle", gr.name)
		}
		for level := 0; g.Len() > 8; level++ {
			next, cmap := contract(&cs, &g, 3*cl.maxW)
			if !sameCoarse(&next, contractOracle(&g, cmap, next.Len())) {
				t.Fatalf("%s level %d: contraction differs from the map-and-sort oracle", gr.name, level)
			}
			if next.Len() == g.Len() {
				break
			}
			g = next
		}
	}
}
