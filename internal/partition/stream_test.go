package partition

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/stream"
)

// meshCSRFull assembles the full sorted CSR of a mesh — the same
// adjacency the edge-stream sources emit.
func meshCSRFull(m *mesh.Mesh) (xadj, adj []int) {
	deg := make([]int, m.NNode)
	for i := range m.E1 {
		deg[m.E1[i]]++
		deg[m.E2[i]]++
	}
	xadj = make([]int, m.NNode+1)
	for v := 0; v < m.NNode; v++ {
		xadj[v+1] = xadj[v] + deg[v]
	}
	adj = make([]int, xadj[m.NNode])
	at := append([]int(nil), xadj[:m.NNode]...)
	for i := range m.E1 {
		a, b := m.E1[i], m.E2[i]
		adj[at[a]] = b
		at[a]++
		adj[at[b]] = a
		at[b]++
	}
	for v := 0; v < m.NNode; v++ {
		sort.Ints(adj[xadj[v]:xadj[v+1]])
	}
	return xadj, adj
}

func TestStreamSpecParseResolve(t *testing.T) {
	sp, err := ParseSpec("STREAM(Restreams=2, BalanceSlack=0.1, Seed=5)")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Method: MethodStream, Restreams: 2, BalanceSlack: 0.1, Seed: 5}
	if sp != want {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
	back, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("round trip of %q: %v", sp.String(), err)
	}
	if back != sp {
		t.Errorf("round trip %+v != %+v", back, sp)
	}

	p, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st, ok := p.(Streaming)
	if !ok {
		t.Fatalf("resolved %T, want Streaming", p)
	}
	if st.Restreams != 2 || st.Slack != 0.1 || st.Seed != 5 {
		t.Errorf("options not applied: %+v", st)
	}

	for _, c := range []struct {
		sp   Spec
		frag string
	}{
		{Spec{Method: MethodStream, Restreams: -1}, "Restreams"},
		{Spec{Method: MethodStream, Restreams: 99}, "Restreams"},
		{Spec{Method: MethodStream, BalanceSlack: 0.9}, "BalanceSlack"},
		{Spec{Method: MethodMultilevel, Restreams: 2}, "STREAM only"},
		{Spec{Method: MethodStream, CoarsenTo: 50}, "multilevel tuning"},
	} {
		_, err := c.sp.Resolve()
		if err == nil {
			t.Errorf("Resolve(%+v) succeeded, want error mentioning %q", c.sp, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Resolve(%+v) error %q does not mention %q", c.sp, err, c.frag)
		}
	}
}

// TestStreamAdapterMatchesEngine pins that the registry STREAM method
// is the machine-free engine bit for bit, at every rank count — the
// replicated-pipeline contract.
func TestStreamAdapterMatchesEngine(t *testing.T) {
	m := mesh.Generate(600, 5)
	xadj, adj := meshCSRFull(m)
	const nparts = 4
	opt := stream.Options{Restreams: 1, Seed: 7}
	want, err := stream.Partition(stream.NewMemStream(xadj, adj, stream.DefaultSlabVerts), nparts, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		cfg := machine.IPSC860(p)
		var full []int
		err := machine.Run(cfg, func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			sp := Streaming{Restreams: 1, Seed: 7}
			part := c.AllGatherInts(sp.Partition(c, g, nparts))
			if c.Rank() == 0 {
				full = part
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		for v := range want {
			if full[v] != want[v] {
				t.Fatalf("P=%d: adapter diverges from engine at vertex %d: %d vs %d",
					p, v, full[v], want[v])
			}
		}
	}
}

// TestStreamQualityMemoryPin is the out-of-core quality contract on
// the paper's 21952-node mesh: the streaming engine must land within
// 1.4x of MULTILEVEL's cut while allocating no more than 4.0 MiB — and
// at least 5x less than the in-memory multilevel run — stay
// deterministic at a fixed seed, and partition an edge-stream file at
// least 10x larger than its resident fringe to the identical answer.
// (The cap is the pin on the streaming engine itself; the ratio's
// denominator moves whenever MULTILEVEL's own allocation does, so it
// is tied to the current measurement, 5.4x.)
func TestStreamQualityMemoryPin(t *testing.T) {
	// The measured allocation, 3 793 856 B once the bootstrap
	// assembled by counting and one slab served every pass, plus 10 %.
	const streamAllocCap = 3793856 * 11 / 10
	if raceEnabled || testing.Short() {
		t.Skip("heavy quality pin; skipped under -short and -race")
	}
	m := mesh.Generate(21952, 42)
	const nparts = 8
	opt := stream.Options{Restreams: 2, Seed: 12345}

	// MULTILEVEL baseline: cut and end-to-end allocation of the
	// in-memory run (graph build included; it is a rounding error
	// against the coarsening ladder).
	var mlCut float64
	var s0, s1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&s0)
	cfg := machine.IPSC860(1)
	err := machine.Run(cfg, func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1, m.E2))
		part := Multilevel{Seed: 12345}.Partition(c, g, nparts)
		mlCut = Cut(c, g, part)
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&s1)
	mlBytes := s1.TotalAlloc - s0.TotalAlloc

	// Streaming engine on the same graph.
	xadj, adj := meshCSRFull(m)
	runtime.GC()
	runtime.ReadMemStats(&s0)
	ms := stream.NewMemStream(xadj, adj, stream.DefaultSlabVerts)
	part, err := stream.Partition(ms, nparts, opt)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&s1)
	stBytes := s1.TotalAlloc - s0.TotalAlloc

	cut := CutEdges(xadj, adj, part)
	t.Logf("ML cut=%.0f (%d bytes), STREAM cut=%d (%d bytes)", mlCut, mlBytes, cut, stBytes)
	if float64(cut) > 1.4*mlCut {
		t.Errorf("STREAM cut %d exceeds 1.4x MULTILEVEL %.0f", cut, mlCut)
	}
	if stBytes > streamAllocCap {
		t.Errorf("STREAM allocated %d bytes, want at most %d", stBytes, streamAllocCap)
	}
	if stBytes*5 > mlBytes {
		t.Errorf("STREAM allocated %d bytes, want >=5x below MULTILEVEL's %d", stBytes, mlBytes)
	}

	// Deterministic at a fixed seed.
	again, err := stream.Partition(stream.NewMemStream(xadj, adj, stream.DefaultSlabVerts), nparts, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := range part {
		if again[v] != part[v] {
			t.Fatalf("same seed diverges at vertex %d: %d vs %d", v, again[v], part[v])
		}
	}

	// Out-of-core fringe pin: the same mesh as an edge-stream file in
	// 256-vertex slabs. The file must dwarf the resident fringe and
	// decode to the identical partition (slab granularity must not
	// matter).
	side := mesh.SideFor(m.NNode)
	src := mesh.NewLatticeSource(side, side, side, 42)
	path := filepath.Join(t.TempDir(), "mesh.cs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Copy(f, stream.FromSource(src, 256)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rd, err := stream.NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	fringe := 0
	var slab stream.Slab
	for {
		if err := rd.Next(&slab); err != nil {
			break
		}
		if b := 8 * (len(slab.XAdj) + len(slab.Adj)); b > fringe {
			fringe = b
		}
	}
	t.Logf("file=%d bytes, resident fringe=%d bytes", st.Size(), fringe)
	if st.Size() < int64(10*fringe) {
		t.Errorf("edge-stream file %d bytes is not >=10x its %d-byte resident fringe", st.Size(), fringe)
	}
	fpart, err := stream.Partition(rd, nparts, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := range part {
		if fpart[v] != part[v] {
			t.Fatalf("file-backed partition diverges at vertex %d: %d vs %d", v, fpart[v], part[v])
		}
	}
}
