package stream_test

import (
	"fmt"
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/partition"
	"chaos/internal/service"
	"chaos/internal/stream"
)

// sweepSeeds is how many 16³ lattices TestSerialMultilevelSweep
// partitions. A single lattice's cut moves by a few percent with the
// seed, and so does the mean of eight; thirty-two keep the mean within
// about half a percent.
const sweepSeeds = 32

// sweepParentMeanCut is the mean edge cut of serial MULTILEVEL over the
// sweep's lattices (seeds 1-32) per part count, measured once at the
// commit before serial MULTILEVEL began coarsening once (it ran a
// V-cycle per bisection). The sweep must not do worse.
var sweepParentMeanCut = map[int]float64{8: 2321.6875, 16: 3563.40625}

// serialMultilevel partitions a symmetric CSR graph into nparts parts
// with MULTILEVEL on one rank: the serial path.
func serialMultilevel(t *testing.T, xadj, adj []int, nparts int) []int {
	t.Helper()
	e1, e2 := csrEdges(xadj, adj)
	return multilevelOn(t, 1, len(xadj)-1, e1, e2, nparts)
}

// csrEdges lists each undirected edge of a symmetric CSR graph once.
func csrEdges(xadj, adj []int) (e1, e2 []int) {
	for v := 0; v+1 < len(xadj); v++ {
		for _, u := range adj[xadj[v]:xadj[v+1]] {
			if v < u {
				e1, e2 = append(e1, v), append(e2, u)
			}
		}
	}
	return e1, e2
}

// multilevelOn partitions the n-vertex graph with edges (e1[i], e2[i])
// into nparts parts with default MULTILEVEL on a procs-rank machine,
// each rank contributing one block of the edges, and returns the
// gathered part vector.
func multilevelOn(t *testing.T, procs, n int, e1, e2 []int, nparts int) []int {
	t.Helper()
	var part []int
	err := machine.Run(machine.Zero(procs), func(c *machine.Ctx) {
		eb := len(e1) / procs
		lo, hi := c.Rank()*eb, (c.Rank()+1)*eb
		if c.Rank() == procs-1 {
			hi = len(e1)
		}
		g := geocol.Build(c, n, geocol.WithLink(e1[lo:hi], e2[lo:hi]))
		full := c.AllGatherInts(partition.Multilevel{}.Partition(c, g, nparts))
		if c.Rank() == 0 {
			part = full
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// cutOf counts the edges of a symmetric CSR graph whose ends lie in
// different parts.
func cutOf(xadj, adj, part []int) int {
	cut := 0
	for v := 0; v+1 < len(xadj); v++ {
		for _, u := range adj[xadj[v]:xadj[v+1]] {
			if v < u && part[v] != part[u] {
				cut++
			}
		}
	}
	return cut
}

// TestSerialMultilevelSweep is the quality sweep of serial MULTILEVEL:
// sweepSeeds 16³ lattices at k = 8 and 16, the hostile families of
// TestStreamPartitionsPinned (a star, scattered components, isolated
// vertices, preferential attachment) at k = 2, 8 and 13, and graphs
// with fewer vertices than parts. Every partition must be valid. Where
// n >= k the heaviest part may exceed the ideal weight by at most the
// default 7% Imbalance plus one coarsest-level vertex, which the
// matching's 1% cluster-weight cap bounds. The mean lattice cut per k
// must not exceed the parent's (sweepParentMeanCut).
func TestSerialMultilevelSweep(t *testing.T) {
	type sweepCase struct {
		name      string
		xadj, adj []int
		nparts    []int
		lattice   bool
	}
	var cases []sweepCase
	for seed := uint64(1); seed <= sweepSeeds; seed++ {
		xadj, adj := stream.MeshCSR(16, seed)
		cases = append(cases, sweepCase{fmt.Sprintf("lattice16/s%d", seed), xadj, adj, []int{8, 16}, true})
	}
	for _, name := range []string{"star", "components", "isolated", "powerlaw"} {
		xadj, adj := stream.PinGraph(name)
		nparts := []int{2, 8, 13}
		if name == "star" {
			nparts = append(nparts, 300) // more parts than its 257 vertices
		}
		cases = append(cases, sweepCase{name, xadj, adj, nparts, false})
	}
	cases = append(cases, sweepCase{"path5", []int{0, 1, 3, 5, 7, 8}, []int{1, 0, 2, 1, 3, 2, 4, 3}, []int{8}, false})

	meanCut := map[int]float64{}
	for _, tc := range cases {
		n := len(tc.xadj) - 1
		for _, k := range tc.nparts {
			part := serialMultilevel(t, tc.xadj, tc.adj, k)
			if len(part) != n {
				t.Fatalf("%s k=%d: %d parts for %d vertices", tc.name, k, len(part), n)
			}
			w := make([]int, k)
			for v, p := range part {
				if p < 0 || p >= k {
					t.Fatalf("%s k=%d: vertex %d in part %d", tc.name, k, v, p)
				}
				w[p]++
			}
			heaviest := 0
			for _, x := range w {
				heaviest = max(heaviest, x)
			}
			bound := 1.07*float64(n)/float64(k) + max(1, 0.01*float64(n))
			if n >= k && float64(heaviest) > bound {
				t.Errorf("%s k=%d: heaviest part %d exceeds %.1f", tc.name, k, heaviest, bound)
			}
			cut := cutOf(tc.xadj, tc.adj, part)
			if tc.lattice {
				meanCut[k] += float64(cut) / sweepSeeds
			}
			t.Logf("%s k=%d: cut %d, heaviest part %d of ideal %.1f", tc.name, k, cut, heaviest, float64(n)/float64(k))
		}
	}
	for k, parent := range sweepParentMeanCut {
		t.Logf("lattice16 k=%d: mean cut %.4f (parent %.4f)", k, meanCut[k], parent)
		if meanCut[k] > parent {
			t.Errorf("lattice16 k=%d: mean cut %.4f above the parent's %.4f", k, meanCut[k], parent)
		}
	}
}

// distSweepParentMeanCut is the mean edge cut of each family of
// TestDistributedMultilevelSweep, measured once at the commit before
// the distributed path's coarsest solve became serial MULTILEVEL's
// (solveSerial), and distSweepCutSlack the share by which the sweep's
// mean may exceed it. The engine that replaced it trades a few tenths
// of a percent of cut on these expander-like graphs for most of the
// coarsest solve's cost (+0.20% and +0.14% here, +0.12% over 32 random
// graphs); half a percent admits that trade and fails anything larger.
var distSweepParentMeanCut = map[string]float64{"random4000": 5469.5, "powerlaw": 1878}

const distSweepCutSlack = 0.005

// TestDistributedMultilevelSweep runs the distributed MULTILEVEL path
// (four ranks, graphs above the default 2 048-vertex
// ParallelThreshold) over two families a mesh does not resemble:
// service_mix's shape, 4 000-node random graphs of degree 6 (a ring
// plus random chords) at k = 8, and the preferential-attachment graph
// of TestStreamPartitionsPinned (3 000 vertices) at k = 2, 8 and 13.
// Every partition must be valid, every part within the distributed
// path's documented 10% of ideal, and each family's mean cut within
// distSweepCutSlack of the parent's (distSweepParentMeanCut).
func TestDistributedMultilevelSweep(t *testing.T) {
	const procs = 4
	type row struct {
		family string
		n      int
		e1, e2 []int
		k      int
	}
	var rows []row
	for seed := 1; seed <= 4; seed++ {
		e1, e2 := service.LoadGraph(seed, 4000, 6)
		rows = append(rows, row{"random4000", 4000, e1, e2, 8})
	}
	xadj, adj := stream.PinGraph("powerlaw")
	e1, e2 := csrEdges(xadj, adj)
	for _, k := range []int{2, 8, 13} {
		rows = append(rows, row{"powerlaw", len(xadj) - 1, e1, e2, k})
	}

	sum, count := map[string]float64{}, map[string]int{}
	for _, r := range rows {
		part := multilevelOn(t, procs, r.n, r.e1, r.e2, r.k)
		if len(part) != r.n {
			t.Fatalf("%s k=%d: %d parts for %d vertices", r.family, r.k, len(part), r.n)
		}
		w := make([]int, r.k)
		for v, p := range part {
			if p < 0 || p >= r.k {
				t.Fatalf("%s k=%d: vertex %d in part %d", r.family, r.k, v, p)
			}
			w[p]++
		}
		ideal := float64(r.n) / float64(r.k)
		for p, x := range w {
			if float64(x) > 1.10*ideal || float64(x) < 0.90*ideal {
				t.Errorf("%s k=%d: part %d holds %d vertices, ideal %.1f", r.family, r.k, p, x, ideal)
			}
		}
		cut := 0
		for i := range r.e1 {
			if part[r.e1[i]] != part[r.e2[i]] {
				cut++
			}
		}
		sum[r.family] += float64(cut)
		count[r.family]++
		t.Logf("%s k=%d: cut %d, part sizes %v", r.family, r.k, cut, w)
	}
	for family, parent := range distSweepParentMeanCut {
		mean := sum[family] / float64(count[family])
		t.Logf("%s: mean cut %.4f (parent %.4f)", family, mean, parent)
		if mean > parent*(1+distSweepCutSlack) {
			t.Errorf("%s: mean cut %.4f more than %.1f%% above the parent's %.4f", family, mean, 100*distSweepCutSlack, parent)
		}
	}
}
