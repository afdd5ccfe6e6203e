package stream

import (
	"math"
	"testing"

	"chaos/internal/mesh"
)

// cutCSR is a straight-line reference cut counter (internal/partition
// has the same logic, but importing it from an in-package test would
// cycle once partition's STREAM adapter lands).
func cutCSR(xadj, adj, part []int) int {
	cut := 0
	for v := 0; v < len(xadj)-1; v++ {
		for _, u := range adj[xadj[v]:xadj[v+1]] {
			if part[v] != part[u] {
				cut++
			}
		}
	}
	return cut / 2
}

// meshCSR materializes the lattice mesh side^3 as a sorted CSR.
func meshCSR(side int, seed uint64) (xadj, adj []int) {
	ls := mesh.NewLatticeSource(side, side, side, seed)
	n := ls.NumVertices()
	xadj = make([]int, 1, n+1)
	for v := 0; v < n; v++ {
		adj = ls.AppendNeighbors(v, adj)
		xadj = append(xadj, len(adj))
	}
	return xadj, adj
}

func TestMemStreamRoundTrip(t *testing.T) {
	xadj, adj := meshCSR(6, 3)
	for _, slabVerts := range []int{1, 7, 64, 1 << 20} {
		ms := NewMemStream(xadj, adj, slabVerts)
		if ms.NumVertices() != len(xadj)-1 || ms.NumEdges() != len(adj)/2 {
			t.Fatalf("slabVerts=%d: counts %d/%d, want %d/%d",
				slabVerts, ms.NumVertices(), ms.NumEdges(), len(xadj)-1, len(adj)/2)
		}
		// Two replays must both reproduce the CSR exactly.
		for pass := 0; pass < 2; pass++ {
			if err := ms.Reset(); err != nil {
				t.Fatal(err)
			}
			var s Slab
			var gotX, gotA []int
			gotX = append(gotX, 0)
			cursor := 0
			for {
				err := ms.Next(&s)
				if err != nil {
					break
				}
				if s.Lo != cursor {
					t.Fatalf("slab at %d, want %d", s.Lo, cursor)
				}
				if slabVerts < len(xadj)-1 && s.NVerts() > slabVerts {
					t.Fatalf("slab covers %d vertices, cap %d", s.NVerts(), slabVerts)
				}
				for i := 0; i < s.NVerts(); i++ {
					gotA = append(gotA, s.Adj[s.XAdj[i]:s.XAdj[i+1]]...)
					gotX = append(gotX, len(gotA))
				}
				cursor += s.NVerts()
			}
			if len(gotX) != len(xadj) || len(gotA) != len(adj) {
				t.Fatalf("pass %d slabVerts=%d: reassembled %d/%d, want %d/%d",
					pass, slabVerts, len(gotX), len(gotA), len(xadj), len(adj))
			}
			for i := range xadj {
				if gotX[i] != xadj[i] {
					t.Fatalf("xadj[%d] = %d, want %d", i, gotX[i], xadj[i])
				}
			}
			for i := range adj {
				if gotA[i] != adj[i] {
					t.Fatalf("adj[%d] = %d, want %d", i, gotA[i], adj[i])
				}
			}
		}
	}
}

func TestFromSourceMatchesMemStream(t *testing.T) {
	const side = 7
	ls := mesh.NewLatticeSource(side, side, side, 11)
	xadj, adj := meshCSR(side, 11)
	src := FromSource(ls, 19)
	ms := NewMemStream(xadj, adj, 19)
	var a, b Slab
	for {
		errA, errB := src.Next(&a), ms.Next(&b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("streams diverge: %v vs %v", errA, errB)
		}
		if errA != nil {
			break
		}
		if a.Lo != b.Lo || a.NVerts() != b.NVerts() || len(a.Adj) != len(b.Adj) {
			t.Fatalf("slab shape diverges at %d/%d", a.Lo, b.Lo)
		}
		for i := range a.Adj {
			if a.Adj[i] != b.Adj[i] {
				t.Fatalf("adj diverges at slab %d entry %d", a.Lo, i)
			}
		}
	}
}

// partCounts tallies assignments, failing on any unassigned vertex.
func partCounts(t *testing.T, part []int, nparts int) []int {
	t.Helper()
	counts := make([]int, nparts)
	for v, q := range part {
		if q < 0 || q >= nparts {
			t.Fatalf("vertex %d assigned %d, want [0,%d)", v, q, nparts)
		}
		counts[q]++
	}
	return counts
}

func TestPartitionBalanceAndDeterminism(t *testing.T) {
	xadj, adj := meshCSR(12, 5) // 1728 vertices
	n := len(xadj) - 1
	for _, nparts := range []int{2, 7, 16} {
		opt := Options{Seed: 99, Restreams: 1}
		ms := NewMemStream(xadj, adj, 128)
		part, err := Partition(ms, nparts, opt)
		if err != nil {
			t.Fatal(err)
		}
		counts := partCounts(t, part, nparts)
		capacity := int(math.Ceil(float64(n) / float64(nparts) * 1.05))
		for q, c := range counts {
			if c > capacity {
				t.Errorf("k=%d: part %d holds %d > cap %d", nparts, q, c, capacity)
			}
		}
		// Same inputs, same partition — including across slab sizes:
		// placement order is global vertex order regardless of fringe
		// granularity.
		again, err := Partition(NewMemStream(xadj, adj, 1000), nparts, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range part {
			if part[v] != again[v] {
				t.Fatalf("k=%d: nondeterministic at vertex %d", nparts, v)
			}
		}
		// A different seed must actually change something.
		opt.Seed = 100
		other, err := Partition(ms, nparts, opt)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for v := range part {
			if part[v] == other[v] {
				same++
			}
		}
		if same == n {
			t.Errorf("k=%d: seed has no effect", nparts)
		}
	}
}

func TestRestreamImprovesCut(t *testing.T) {
	xadj, adj := meshCSR(14, 17) // 2744 vertices
	ms := NewMemStream(xadj, adj, 256)
	const nparts = 8
	blind, err := Partition(ms, nparts, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(ms, nparts, Options{Seed: 1, Restreams: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cb, cr := cutCSR(xadj, adj, blind), cutCSR(xadj, adj, refined); cr >= cb {
		t.Errorf("restreaming did not improve cut: %d -> %d", cb, cr)
	}
}

func TestPartitionBadArgs(t *testing.T) {
	xadj, adj := meshCSR(3, 1)
	ms := NewMemStream(xadj, adj, 8)
	if _, err := Partition(ms, 0, Options{}); err == nil {
		t.Error("nparts=0 not rejected")
	}
}

// truncatedStream ends before covering every vertex.
type truncatedStream struct{ *MemStream }

func (ts truncatedStream) NumVertices() int { return ts.MemStream.NumVertices() + 5 }

func TestPartitionTruncatedStream(t *testing.T) {
	xadj, adj := meshCSR(3, 1)
	if _, err := Partition(truncatedStream{NewMemStream(xadj, adj, 8)}, 2, Options{}); err == nil {
		t.Error("truncated stream not rejected")
	}
}
