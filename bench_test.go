// Package bench holds the benchmark harness that regenerates the
// paper's tables as Go benchmarks. Each BenchmarkTableN* target runs
// one cell (or column) of the corresponding paper table on a scaled
// grid and reports the simulated machine time as the custom metric
// "vsec" alongside host ns/op; cmd/chaosbench runs the full paper-size
// grid. Ablation benchmarks cover the design choices called out in
// DESIGN.md.
package bench

import (
	"context"
	"testing"

	"chaos/internal/experiments"
	"chaos/internal/machine"
	"chaos/internal/partition"
	"chaos/internal/registry"
	"chaos/internal/ttable"

	"chaos/internal/dist"
)

// benchGrid is the scaled configuration used by the Go benchmarks
// (the full paper grid lives behind cmd/chaosbench).
const (
	benchMeshNodes = 2000
	benchProcs     = 8
	benchIters     = 10
)

func runCell(b *testing.B, cfg experiments.Config) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		ph, err := experiments.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		total = ph.Total()
	}
	b.ReportMetric(total, "vsec")
}

// --- Table 1: schedule reuse vs none (paper Table 1) ---

func BenchmarkTable1ScheduleReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters,
	})
}

func BenchmarkTable1NoReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: false, Iters: benchIters,
	})
}

func BenchmarkTable1MDScheduleReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: 4, Workload: experiments.Water648(),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters,
	})
}

func BenchmarkTable1MDNoReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: 4, Workload: experiments.Water648(),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: false, Iters: benchIters,
	})
}

// --- Table 2: partitioner/codegen regimes on the mesh template ---

func BenchmarkTable2RCBCompilerReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters, Compiler: true,
	})
}

func BenchmarkTable2RCBCompilerNoReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: false, Iters: benchIters, Compiler: true,
	})
}

func BenchmarkTable2RCBHand(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters,
	})
}

func BenchmarkTable2BlockHand(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodBlock}, Reuse: true, Iters: benchIters,
	})
}

func BenchmarkTable2RSBCompilerReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRSB}, Reuse: true, Iters: benchIters, Compiler: true,
	})
}

func BenchmarkTable2MultilevelCompilerReuse(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodMultilevel}, Reuse: true, Iters: benchIters, Compiler: true,
	})
}

// --- Table 3: compiler-linked RCB detail (one cell per proc count) ---

func BenchmarkTable3RCBDetailP4(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: 4, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters, Compiler: true,
	})
}

func BenchmarkTable3RCBDetailP16(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: 16, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters, Compiler: true,
	})
}

// --- Table 4: BLOCK partitioning with schedule reuse ---

func BenchmarkTable4BlockP4(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: 4, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodBlock}, Reuse: true, Iters: benchIters,
	})
}

func BenchmarkTable4BlockP16(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: 16, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodBlock}, Reuse: true, Iters: benchIters,
	})
}

// --- Real-cores backend: wall time vs virtual time at P=1 and P=8 ---

// benchReal runs the RCB pipeline on the Real execution backend and
// reports both trajectories: host wall time ("wallms", max across
// ranks) and the virtual time the same run charged ("vsec"). Compare
// the P=1 and P=8 wallms on a host with 8+ cores for real speedup.
func benchReal(b *testing.B, procs int) {
	b.Helper()
	var wall, vsec float64
	for i := 0; i < b.N; i++ {
		ph, err := experiments.Run(experiments.Config{
			Procs: procs, Workload: experiments.MeshWorkload(benchMeshNodes),
			Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters,
			Backend: machine.Real,
		})
		if err != nil {
			b.Fatal(err)
		}
		wall = ph.Wall * 1000
		vsec = ph.Total()
	}
	b.ReportMetric(wall, "wallms")
	b.ReportMetric(vsec, "vsec")
}

func BenchmarkRealBackendMeshP1(b *testing.B) { benchReal(b, 1) }
func BenchmarkRealBackendMeshP8(b *testing.B) { benchReal(b, 8) }

// --- Ablation: multilevel V-cycle vs full spectral bisection ---

func BenchmarkAblationRSB(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodRSB}, Reuse: true, Iters: benchIters,
	})
}

func BenchmarkAblationMultilevel(b *testing.B) {
	runCell(b, experiments.Config{
		Procs: benchProcs, Workload: experiments.MeshWorkload(benchMeshNodes),
		Spec: partition.Spec{Method: partition.MethodMultilevel}, Reuse: true, Iters: benchIters,
	})
}

// --- Ablation: distributed vs replicated translation table ---

func benchTranslation(b *testing.B, replicated bool) {
	b.Helper()
	w := experiments.MeshWorkload(benchMeshNodes)
	var vsec float64
	for i := 0; i < b.N; i++ {
		st, err := machine.RunStats(context.Background(), machine.IPSC860(benchProcs), func(c *machine.Ctx) {
			// An irregular distribution dealt round-robin by hash.
			var mine []int
			for g := 0; g < w.NNode; g++ {
				if int(uint(g*2654435761)>>4)%c.Procs() == c.Rank() {
					mine = append(mine, g)
				}
			}
			tab := ttable.Build(c, w.NNode, mine)
			var res ttable.Resolver = tab
			if replicated {
				res = ttable.Regular{D: tab.Replicated(c)}
			}
			ib := dist.NewBlock(w.NIter, c.Procs())
			lo, hi := ib.Lo(c.Rank()), ib.Hi(c.Rank())
			globals := make([]int, 0, 2*(hi-lo))
			for e := lo; e < hi; e++ {
				globals = append(globals, w.E1[e], w.E2[e])
			}
			for it := 0; it < 5; it++ {
				res.Resolve(c, globals)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		vsec = st.MaxClock
	}
	b.ReportMetric(vsec, "vsec")
}

func BenchmarkAblationTranslationDistributed(b *testing.B) { benchTranslation(b, false) }
func BenchmarkAblationTranslationReplicated(b *testing.B)  { benchTranslation(b, true) }

// --- Ablation: reuse-check overhead (the cost of the guard itself) ---

func BenchmarkAblationReuseCheckOverhead(b *testing.B) {
	// Measures the pure bookkeeping cost of the conservative check on
	// an always-valid record: this is the host-side overhead every
	// executor iteration pays for the ability to reuse schedules — a
	// handful of integer comparisons, exactly as the paper argues.
	r := registry.New()
	a := dist.NewDADAllocator()
	data := []dist.DAD{a.New(dist.Irregular, 53000), a.New(dist.Irregular, 53000)}
	ind := []dist.DAD{a.New(dist.Block, 350000), a.New(dist.Block, 350000)}
	var rec registry.LoopRecord
	r.Record(&rec, data, ind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Check(&rec, data, ind) {
			b.Fatal("check unexpectedly failed")
		}
	}
}
