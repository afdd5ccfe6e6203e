package stream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"chaos/internal/xrand"
)

// edgesCSR builds the symmetric, sorted, self-loop- and duplicate-free
// CSR of an undirected edge list over n vertices.
func edgesCSR(n int, edges [][2]int) (xadj, adj []int) {
	nbrs := make([][]int, n)
	for _, e := range edges {
		if e[0] != e[1] {
			nbrs[e[0]] = append(nbrs[e[0]], e[1])
			nbrs[e[1]] = append(nbrs[e[1]], e[0])
		}
	}
	xadj = make([]int, 1, n+1)
	for v := range nbrs {
		slices.Sort(nbrs[v])
		adj = append(adj, slices.Compact(nbrs[v])...)
		xadj = append(xadj, len(adj))
	}
	return xadj, adj
}

// pinGraphs is the graph axis of TestStreamPartitionsPinned: three
// lattice meshes and four hostile families drawn from internal/xrand.
func pinGraphs() []struct {
	name      string
	xadj, adj []int
} {
	type graph = struct {
		name      string
		xadj, adj []int
	}
	var out []graph
	for _, side := range []int{5, 10, 16} {
		xadj, adj := meshCSR(side, uint64(side)*7)
		out = append(out, graph{fmt.Sprintf("lattice%d", side), xadj, adj})
	}

	// A star whose hub sits mid-range: one vertex adjacent to all.
	const starN, hub = 257, 100
	var star [][2]int
	for v := 0; v < starN; v++ {
		star = append(star, [2]int{hub, v})
	}
	xadj, adj := edgesCSR(starN, star)
	out = append(out, graph{"star", xadj, adj})

	// Six random components of 80 vertices, ids scattered by a
	// permutation so no component is a contiguous id range.
	rng := xrand.New(35)
	const comps, compN = 6, 80
	perm := rng.Perm(comps * compN)
	var cc [][2]int
	for c := 0; c < comps; c++ {
		for i := 1; i < compN; i++ {
			base := c * compN
			cc = append(cc, [2]int{perm[base+i], perm[base+rng.Intn(i)]})
			cc = append(cc, [2]int{perm[base+rng.Intn(compN)], perm[base+rng.Intn(compN)]})
		}
	}
	xadj, adj = edgesCSR(comps*compN, cc)
	out = append(out, graph{"components", xadj, adj})

	// Random edges among 60 % of 500 vertices; the rest stay isolated.
	const isoN = 500
	var iso [][2]int
	for i := 0; i < 3*isoN/2; i++ {
		a, b := rng.Intn(isoN), rng.Intn(isoN)
		if a%5 < 3 && b%5 < 3 {
			iso = append(iso, [2]int{a, b})
		}
	}
	xadj, adj = edgesCSR(isoN, iso)
	out = append(out, graph{"isolated", xadj, adj})

	// Preferential attachment: each arrival links to two endpoints
	// drawn in proportion to degree, so a few hubs carry most edges.
	const plN = 3000
	ends := []int{0, 1}
	pl := [][2]int{{0, 1}}
	for v := 2; v < plN; v++ {
		for k := 0; k < 2; k++ {
			u := ends[rng.Intn(len(ends))]
			pl = append(pl, [2]int{v, u})
			ends = append(ends, v, u)
		}
	}
	xadj, adj = edgesCSR(plN, pl)
	out = append(out, graph{"powerlaw", xadj, adj})
	return out
}

// partHash folds a part vector into one value.
func partHash(part []int) uint64 {
	h := uint64(len(part))
	for _, q := range part {
		h = xrand.Hash64(h ^ uint64(q))
	}
	return h
}

// streamPins holds, per graph / nparts / Restreams / weighting, the
// partHash of the STREAM partition. The values were recorded before
// the bootstrap's model build and contraction were rewritten to
// assemble by counting; they pin that every such change leaves every
// partition bit-identical.
var streamPins = map[string]uint64{
	"lattice5/k2/r0/wfalse":    0x76365c30c4097cd6,
	"lattice5/k2/r0/wtrue":     0xf79317ce88c19cf,
	"lattice5/k2/r2/wfalse":    0xb7f4a966953fbf58,
	"lattice5/k2/r2/wtrue":     0xdbeeacbb9607a9bd,
	"lattice5/k8/r0/wfalse":    0x6f04e3692ac4c027,
	"lattice5/k8/r0/wtrue":     0x626d368518ff3d41,
	"lattice5/k8/r2/wfalse":    0xa693a047c138d0ba,
	"lattice5/k8/r2/wtrue":     0x7daba04e7da03211,
	"lattice5/k13/r0/wfalse":   0xb96992c840c93069,
	"lattice5/k13/r0/wtrue":    0x63c7f99ac81fe168,
	"lattice5/k13/r2/wfalse":   0x4a37ef8039052b5c,
	"lattice5/k13/r2/wtrue":    0x87a5acec10938b7f,
	"lattice10/k2/r0/wfalse":   0xcc35193ff364d951,
	"lattice10/k2/r0/wtrue":    0xf2733b4447fb9244,
	"lattice10/k2/r2/wfalse":   0xad2ec4cccd2f1d26,
	"lattice10/k2/r2/wtrue":    0x543399adc8af43b2,
	"lattice10/k8/r0/wfalse":   0xc656e13956695d3d,
	"lattice10/k8/r0/wtrue":    0xcbf5a47eefe8994,
	"lattice10/k8/r2/wfalse":   0xab57db82fc5d6042,
	"lattice10/k8/r2/wtrue":    0xd9fdc35e481408bb,
	"lattice10/k13/r0/wfalse":  0x6b767ac5c8cbbddd,
	"lattice10/k13/r0/wtrue":   0x61f667f089def43a,
	"lattice10/k13/r2/wfalse":  0x177dba07dd1d0785,
	"lattice10/k13/r2/wtrue":   0x41ce477d06cbda15,
	"lattice16/k2/r0/wfalse":   0x2ef43ce1a81e7443,
	"lattice16/k2/r0/wtrue":    0xe1304d83bf2c9713,
	"lattice16/k2/r2/wfalse":   0xae3bd392aaa764de,
	"lattice16/k2/r2/wtrue":    0xea088e6936fd393e,
	"lattice16/k8/r0/wfalse":   0xc3053ef84bce544d,
	"lattice16/k8/r0/wtrue":    0xd00693952d487190,
	"lattice16/k8/r2/wfalse":   0xd2ce5927f6324305,
	"lattice16/k8/r2/wtrue":    0x983e3e1dff56d7ce,
	"lattice16/k13/r0/wfalse":  0x2d039bcf3ec72cd7,
	"lattice16/k13/r0/wtrue":   0xfaa5f1469aa7e3d6,
	"lattice16/k13/r2/wfalse":  0xdabfa87ce219455d,
	"lattice16/k13/r2/wtrue":   0x8955bbbf68088db2,
	"star/k2/r0/wfalse":        0xfb150414ce390da4,
	"star/k2/r0/wtrue":         0x4f59fa3acbe024ea,
	"star/k2/r2/wfalse":        0xfb150414ce390da4,
	"star/k2/r2/wtrue":         0x4f59fa3acbe024ea,
	"star/k8/r0/wfalse":        0x2dfe501663ce6146,
	"star/k8/r0/wtrue":         0x830285cbe5a3d505,
	"star/k8/r2/wfalse":        0x151cba786cb7b7a2,
	"star/k8/r2/wtrue":         0xef1dacac6d49ecb2,
	"star/k13/r0/wfalse":       0x602d04bee439c70f,
	"star/k13/r0/wtrue":        0xd8eee623ac8fa10f,
	"star/k13/r2/wfalse":       0x58421aa0c9df7174,
	"star/k13/r2/wtrue":        0x7ffa0248d9cfa003,
	"components/k2/r0/wfalse":  0xfb7228b1a2b204c9,
	"components/k2/r0/wtrue":   0x7c3e454c4c7d111e,
	"components/k2/r2/wfalse":  0xfb7228b1a2b204c9,
	"components/k2/r2/wtrue":   0xdbe21d169688ce8c,
	"components/k8/r0/wfalse":  0x6a797b56d5f142a8,
	"components/k8/r0/wtrue":   0xa7309721738aaab6,
	"components/k8/r2/wfalse":  0x8a8459887fcf3e63,
	"components/k8/r2/wtrue":   0xb62db55eb92c0024,
	"components/k13/r0/wfalse": 0xc1f3a9807e99a83d,
	"components/k13/r0/wtrue":  0x4089c6a96e08c0ff,
	"components/k13/r2/wfalse": 0x76467df23100ea93,
	"components/k13/r2/wtrue":  0xfcaeb9817a77ec0,
	"isolated/k2/r0/wfalse":    0x7e48d3a0427322fc,
	"isolated/k2/r0/wtrue":     0x6ec1e7278ccf672e,
	"isolated/k2/r2/wfalse":    0x7e48d3a0427322fc,
	"isolated/k2/r2/wtrue":     0x6ec1e7278ccf672e,
	"isolated/k8/r0/wfalse":    0xc5d3e5d6ac8d38c4,
	"isolated/k8/r0/wtrue":     0x50e867e6161f6b07,
	"isolated/k8/r2/wfalse":    0xab32855a09b6b84b,
	"isolated/k8/r2/wtrue":     0x50e867e6161f6b07,
	"isolated/k13/r0/wfalse":   0xe5ec9f0ba6348637,
	"isolated/k13/r0/wtrue":    0x8307ac00ff92fb8f,
	"isolated/k13/r2/wfalse":   0x5ca84cbf73b50043,
	"isolated/k13/r2/wtrue":    0x8307ac00ff92fb8f,
	"powerlaw/k2/r0/wfalse":    0x2dd1d23e37a4f869,
	"powerlaw/k2/r0/wtrue":     0x67a92fe16e3ffea5,
	"powerlaw/k2/r2/wfalse":    0x430bbf359337df34,
	"powerlaw/k2/r2/wtrue":     0x6b4d841980a24ed9,
	"powerlaw/k8/r0/wfalse":    0xe5a6f9d1519fecca,
	"powerlaw/k8/r0/wtrue":     0x6c316d3782ffdf95,
	"powerlaw/k8/r2/wfalse":    0x641e854ec308c40f,
	"powerlaw/k8/r2/wtrue":     0xe892cf32067baa32,
	"powerlaw/k13/r0/wfalse":   0x4dd8502bd73dd41,
	"powerlaw/k13/r0/wtrue":    0x3fe66d7968d7fc6e,
	"powerlaw/k13/r2/wfalse":   0x2befba7b1cfbb27e,
	"powerlaw/k13/r2/wtrue":    0x4e6340595910312a,
}

// TestStreamPartitionsPinned partitions every graph of pinGraphs at
// nparts 2, 8 and 13, with 0 and 2 restreams, unweighted and with
// fractional vertex weights, from MemStreams and edge-stream files at
// two slab sizes. Slab size and source must not change the answer,
// and the answer must match its recorded hash.
func TestStreamPartitionsPinned(t *testing.T) {
	for _, g := range pinGraphs() {
		n := len(g.xadj) - 1
		frac := make([]float64, n)
		for v := range frac {
			frac[v] = 0.1 + float64(xrand.Hash64(uint64(v))%100)/37
		}
		files := map[int][]byte{}
		for _, slabVerts := range []int{64, DefaultSlabVerts} {
			var buf bytes.Buffer
			if _, err := Copy(&buf, NewMemStream(g.xadj, g.adj, slabVerts)); err != nil {
				t.Fatal(err)
			}
			files[slabVerts] = buf.Bytes()
		}
		for _, nparts := range []int{2, 8, 13} {
			for _, restreams := range []int{0, 2} {
				for _, w := range [][]float64{nil, frac} {
					key := fmt.Sprintf("%s/k%d/r%d/w%v", g.name, nparts, restreams, w != nil)
					opt := Options{Restreams: restreams, Seed: 5}
					var got []uint64
					for _, slabVerts := range []int{64, DefaultSlabVerts} {
						rd, err := NewReader(bytes.NewReader(files[slabVerts]))
						if err != nil {
							t.Fatal(err)
						}
						for _, gs := range []GraphStream{NewMemStream(g.xadj, g.adj, slabVerts), rd} {
							part, err := PartitionWeighted(gs, nparts, w, opt)
							if err != nil {
								t.Fatalf("%s: %v", key, err)
							}
							partCounts(t, part, nparts)
							got = append(got, partHash(part))
						}
					}
					for _, h := range got[1:] {
						if h != got[0] {
							t.Errorf("%s: slab size or source changed the partition: %#x", key, got)
							break
						}
					}
					if want, ok := streamPins[key]; !ok || got[0] != want {
						t.Errorf("%s: partition hash %#x, pinned %#x", key, got[0], want)
					}
				}
			}
		}
	}
}
