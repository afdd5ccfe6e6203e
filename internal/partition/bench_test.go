package partition

import (
	"sync"
	"testing"
	"time"

	"chaos/internal/csr"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
)

// The multilevel micro-benchmarks run on a >=20k-node shell mesh (the
// scale of the paper's larger Euler workload; mesh.Generate rounds the
// 21000 target to a 28^3 lattice of 21952 nodes). The mesh is built
// once and shared.
var big struct {
	once sync.Once
	m    *mesh.Mesh
}

func bigMesh() *mesh.Mesh {
	big.once.Do(func() { big.m = mesh.Generate(21000, 11) })
	return big.m
}

// timePartition runs the named partitioner on a single simulated rank
// (so host time measures the partitioner itself, not the simulation)
// and returns the host duration of the Partition call — GeoCoL
// construction and cut counting are outside the partitioner and stay
// untimed — plus the resulting edge cut.
func timePartition(tb testing.TB, m *mesh.Mesh, name string, nparts int) (time.Duration, int) {
	tb.Helper()
	pt, err := Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	var cut int
	var elapsed time.Duration
	err = machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode,
			geocol.WithLink(m.E1, m.E2),
			geocol.WithGeometry(m.X, m.Y, m.Z))
		start := time.Now()
		part := pt.Partition(c, g, nparts)
		elapsed = time.Since(start)
		f := g.Gather(c)
		cut = CutEdges(f.XAdj, f.Adj, part)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return elapsed, cut
}

// TestMultilevelSpeedup asserts the tentpole's speed bar: MULTILEVEL
// must partition the 20k-node mesh at least 5x faster than RSB in host
// time. Wall-clock assertions on shared CI runners are noise-prone, so
// the measurement is retried (best-of-two per side, up to three
// attempts, passing if any attempt clears the bar): a transient CPU
// spike recovers on retry while a genuine regression keeps failing.
// The typical ratio is ~7x. It also cross-checks cut quality at this
// scale.
func TestMultilevelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("host-timing comparison")
	}
	if raceEnabled {
		t.Skip("host-timing comparison is skewed by race instrumentation")
	}
	m := bigMesh()
	const nparts = 8
	bestOf2 := func(name string) (time.Duration, int) {
		d1, cut := timePartition(t, m, name, nparts)
		d2, _ := timePartition(t, m, name, nparts)
		if d2 < d1 {
			d1 = d2
		}
		return d1, cut
	}
	var mlTime, rsbTime time.Duration
	var mlCut, rsbCut int
	for attempt := 1; ; attempt++ {
		mlTime, mlCut = bestOf2("MULTILEVEL")
		rsbTime, rsbCut = bestOf2("RSB")
		t.Logf("attempt %d: %d nodes, %d parts: MULTILEVEL %v cut %d, RSB %v cut %d (%.1fx faster)",
			attempt, m.NNode, nparts, mlTime, mlCut, rsbTime, rsbCut,
			float64(rsbTime)/float64(mlTime))
		if rsbTime >= 5*mlTime || attempt == 3 {
			break
		}
	}
	if rsbTime < 5*mlTime {
		t.Errorf("MULTILEVEL %v vs RSB %v: speedup %.2fx, want >= 5x",
			mlTime, rsbTime, float64(rsbTime)/float64(mlTime))
	}
	if float64(mlCut) > 1.15*float64(rsbCut) {
		t.Errorf("MULTILEVEL cut %d exceeds RSB cut %d by more than 15%%", mlCut, rsbCut)
	}
}

// benchPartitioner reports the partitioner-only time as the custom
// metric "part-ms" — ns/op also includes the (identical, fixed) GeoCoL
// construction and cut counting, which would understate the
// MULTILEVEL-vs-RSB ratio if compared directly.
func benchPartitioner(b *testing.B, name string) {
	m := bigMesh()
	b.ResetTimer()
	var inner time.Duration
	for i := 0; i < b.N; i++ {
		d, _ := timePartition(b, m, name, 8)
		inner += d
	}
	b.ReportMetric(float64(inner.Milliseconds())/float64(b.N), "part-ms")
}

func BenchmarkMultilevel20K(b *testing.B) { benchPartitioner(b, "MULTILEVEL") }
func BenchmarkRSB20K(b *testing.B)        { benchPartitioner(b, "RSB") }
func BenchmarkKL20K(b *testing.B)         { benchPartitioner(b, "KL") }
func BenchmarkRCB20K(b *testing.B)        { benchPartitioner(b, "RCB") }

// BenchmarkCoarsen isolates the coarsening half of the V-cycle: one
// full heavy-edge-matching ladder from the 20k-node mesh down to the
// default coarsening floor.
func BenchmarkCoarsen(b *testing.B) {
	m := bigMesh()
	var f *csr.Graph
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1, m.E2))
		f = g.Gather(c)
	})
	if err != nil {
		b.Fatal(err)
	}
	verts := make([]int, f.Len())
	for i := range verts {
		verts[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cs csr.Scratch
		sg := induce(&cs, f, verts)
		totalW := sg.totalWeight()
		for cur := sg; cur.Len() > 100; {
			cmap, nc := heavyEdgeMatch(cur, totalW*0.01)
			if nc > cur.Len()*9/10 {
				break
			}
			cur = contract(&cs, cur, cmap, nc)
		}
	}
}

// BenchmarkParallelMultilevel8 exercises the distributed V-cycle
// (parallel coarsening ladder + hill-climbing FM refinement,
// pmultilevel.go/prefine.go) on the 20k-node mesh at eight simulated
// ranks. ns/op includes the whole goroutine-per-rank simulation; the
// custom metric reports the virtual partitioning seconds the paper's
// tables would, which is the number TestParallelMultilevelTimeScales
// pins against the serial path.
func BenchmarkParallelMultilevel8(b *testing.B) {
	m := bigMesh()
	pt, err := Lookup("MULTILEVEL")
	if err != nil {
		b.Fatal(err)
	}
	const p = 8
	b.ResetTimer()
	var virtual float64
	for i := 0; i < b.N; i++ {
		err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
			eb := m.NEdge() / p
			elo, ehi := c.Rank()*eb, (c.Rank()+1)*eb
			if c.Rank() == p-1 {
				ehi = m.NEdge()
			}
			g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1[elo:ehi], m.E2[elo:ehi]))
			t0 := c.Clock()
			pt.Partition(c, g, p)
			dt := c.MaxFloat(c.Clock() - t0)
			if c.Rank() == 0 {
				virtual = dt
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(virtual, "virtual-s")
}
