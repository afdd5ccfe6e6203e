package geocol

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/csr"
	"chaos/internal/dist"
	"chaos/internal/machine"
)

// fuzzEdges decodes the fuzz bytes into an edge list over n vertices.
// Consecutive byte pairs become one edge each, reduced mod n, so the
// corpus naturally produces self-loops, duplicate edges, isolated
// vertices (empty exchanges) and edges touching vertex n-1 on the
// max rank. A (0, n-1) edge is always appended so every case has at
// least one cross-rank dependence when P > 1.
func fuzzEdges(data []byte, n int) (e1, e2 []int) {
	for i := 0; i+1 < len(data); i += 2 {
		e1 = append(e1, int(data[i])%n)
		e2 = append(e2, int(data[i+1])%n)
	}
	e1 = append(e1, 0)
	e2 = append(e2, n-1)
	return e1, e2
}

// fuzzScratch is the exchange-pattern scratch of FuzzGhostExchange, one
// per rank, kept across inputs: every input derives its pattern on
// whatever the previous ones left behind.
var fuzzScratch [4]GhostScratch

// FuzzGhostExchange builds a fuzzed graph, checks the graph against
// the reference body (reference_test.go) and its exchange pattern —
// derived on a scratch recycled across inputs — against its
// specification (specExchange), and checks the full GhostExchange
// surface against ground truth that is known exactly because each
// pushed value is the sender's global vertex id: after PushInts, ghost slot i must hold IDs[i]; after an
// UpdateIntsTouchedInto touching every third vertex, exactly those
// ghosts moved.
func FuzzGhostExchange(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0))                             // minimal graph, single rank
	f.Add([]byte{0, 0, 5, 5}, byte(3), byte(20))                  // self-loops only
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, byte(1), byte(6)) // path across 2 ranks
	f.Add([]byte{0, 9, 9, 0, 3, 7}, byte(3), byte(10))            // duplicates + max rank
	f.Fuzz(func(t *testing.T, data []byte, pb, nb byte) {
		p := 1 + int(pb)%4
		n := p + int(nb)%24 // at least one vertex per rank
		e1, e2 := fuzzEdges(data, n)
		cfg := machine.Zero(p)
		err := machine.Run(cfg, func(c *machine.Ctx) {
			// Each rank contributes a strided slice of the edge list.
			var me1, me2 []int
			for i := range e1 {
				if i%p == c.Rank() {
					me1 = append(me1, e1[i])
					me2 = append(me2, e2[i])
				}
			}
			g := Build(c, n, WithLink(me1, me2))
			if d := diffGraphs(g, refBuild(c, n, me1, me2)); d != "" {
				t.Errorf("rank %d graph: %s", c.Rank(), d)
			}
			before := c.Clock()
			ge := fuzzScratch[c.Rank()].NewGhostExchange(c, g)
			if d := specExchange(c, cfg.WordTime, g, ge, before); d != "" {
				t.Errorf("rank %d exchange pattern: %s", c.Rank(), d)
			}

			lo := g.Home.Lo(c.Rank())
			localN := g.LocalN(c.Rank())
			ids := make([]int, localN)
			fids := make([]float64, localN)
			for l := range ids {
				ids[l] = lo + l
				fids[l] = float64(lo+l) + 0.5
			}
			ghost := ge.PushInts(c, ids)
			for i, v := range ghost {
				if v != ge.IDs[i] {
					t.Errorf("rank %d ghost slot %d: got %d, want id %d",
						c.Rank(), i, v, ge.IDs[i])
				}
			}
			for k, loc := range ge.Loc {
				if loc < 0 && ghost[-loc-1] != g.Adj[k] {
					t.Errorf("rank %d: adjacency slot %d reads ghost %d through Loc, want %d",
						c.Rank(), k, ghost[-loc-1], g.Adj[k])
				}
			}
			fghost := ge.PushFloatsInto(c, fids, nil)
			for i, v := range fghost {
				if v != float64(ge.IDs[i])+0.5 {
					t.Errorf("rank %d float ghost slot %d: got %v, want %v",
						c.Rank(), i, v, float64(ge.IDs[i])+0.5)
				}
			}

			// Incremental update: every third global vertex moves.
			changed := make([]bool, localN)
			for l := range ids {
				if (lo+l)%3 == 0 {
					ids[l] += n
					changed[l] = true
				}
			}
			touched := ge.UpdateIntsTouchedInto(c, ids, changed, ghost, nil)
			for i, id := range ge.IDs {
				want := id
				if id%3 == 0 {
					want = id + n
				}
				if ghost[i] != want {
					t.Errorf("rank %d updated ghost %d: got %d, want %d",
						c.Rank(), i, ghost[i], want)
				}
			}
			for k, s := range touched {
				if ge.IDs[s]%3 != 0 {
					t.Errorf("rank %d touched slot %d (id %d) never changed",
						c.Rank(), s, ge.IDs[s])
				}
				if k > 0 && touched[k-1] >= s {
					t.Errorf("rank %d touched list not ascending: %v",
						c.Rank(), touched)
				}
			}

			// Monotone marks: flag the same vertices via PushMarks.
			marks := make([]int, len(ge.IDs))
			ge.PushMarks(c, changed, marks)
			for i, id := range ge.IDs {
				want := 0
				if id%3 == 0 {
					want = 1
				}
				if marks[i] != want {
					t.Errorf("rank %d mark %d (id %d): got %d, want %d",
						c.Rank(), i, id, marks[i], want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzClustering maps n vertices onto nc in [1, n] clusters by a
// salted multiplicative hash; some clusters may stay empty.
func fuzzClustering(n int, salt byte) (cmap []int, nc int) {
	nc = 1 + int(salt)%n
	cmap = make([]int, n)
	for v := range cmap {
		h := uint32(salt)*2654435761 + uint32(v)*40503
		cmap[v] = int(h>>16) % nc
	}
	return cmap, nc
}

// diffCSR names the first difference between two serial graphs, or "";
// floats must agree bit for bit.
func diffCSR(got, want *csr.Graph) string {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !slices.Equal(got.XAdj, want.XAdj):
		return fmt.Sprintf("XAdj %v, want %v", got.XAdj, want.XAdj)
	case !slices.Equal(got.Adj, want.Adj):
		return fmt.Sprintf("Adj %v, want %v", got.Adj, want.Adj)
	case !slices.EqualFunc(got.EdgeW, want.EdgeW, bits):
		return fmt.Sprintf("EdgeW %v, want %v", got.EdgeW, want.EdgeW)
	case !slices.EqualFunc(got.Weights, want.Weights, bits):
		return fmt.Sprintf("Weights %v, want %v", got.Weights, want.Weights)
	}
	return ""
}

// FuzzBuildCoarse contracts a fuzzed graph twice under fuzzed
// clusterings at P = 1..4, and demands of every gathered level exactly
// what the serial contraction of the gathered finer level gives: csr.Scratch.Contract, then SortRows, bit for bit.
// The edge list brings self-loops, multi-edges and isolated vertices;
// LOAD is optional and fractional, so the vertex-weight sums depend on
// their order; the second level contracts the first level's integer
// edge weights.
func FuzzBuildCoarse(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0), byte(0), byte(0))                        // one vertex, one rank
	f.Add([]byte{0, 0, 5, 5, 1, 2, 1, 2}, byte(3), byte(20), byte(7), byte(1)) // self-loops, multi-edge, LOAD
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, byte(1), byte(6), byte(2), byte(0))
	f.Add([]byte{0, 9, 9, 0, 3, 7, 3, 7}, byte(3), byte(10), byte(200), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, pb, nb, cb, lb byte) {
		p := 1 + int(pb)%4
		n := p + int(nb)%24 // at least one vertex per rank
		e1, e2 := fuzzEdges(data, n)
		var load []float64
		if lb&1 != 0 {
			load = make([]float64, n)
			for v := range load {
				load[v] = float64(1+(v*int(lb>>1)+v)%7) / 3
			}
		}
		cfg := machine.Zero(p)
		err := machine.Run(cfg, func(c *machine.Ctx) {
			var me1, me2 []int
			for i := range e1 {
				if i%p == c.Rank() {
					me1, me2 = append(me1, e1[i]), append(me2, e2[i])
				}
			}
			opts := []Option{WithLink(me1, me2)}
			if load != nil {
				home := dist.NewBlock(n, p)
				lo := home.Lo(c.Rank())
				opts = append(opts, WithLoad(load[lo:lo+home.LocalSize(c.Rank())]))
			}
			g := Build(c, n, opts...)
			var s csr.Scratch
			for level, salt := range []byte{cb, cb ^ 0x5a} {
				cmap, nc := fuzzClustering(g.N, salt)
				fine := g.GatherTo(c, machine.AllRanks)
				lo := g.Home.Lo(c.Rank())
				g = BuildCoarse(c, g, NewGhostExchange(c, g), cmap[lo:lo+g.LocalN(c.Rank())], nc)
				want := s.Contract(fine, cmap, nc)
				s.SortRows(&want)
				if d := diffCSR(g.GatherTo(c, machine.AllRanks), &want); d != "" {
					t.Errorf("P=%d rank %d level %d: %s", p, c.Rank(), level, d)
				}
				if g.NEdges != len(want.Adj)/2 {
					t.Errorf("P=%d rank %d level %d: NEdges %d, want %d", p, c.Rank(), level, g.NEdges, len(want.Adj)/2)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
