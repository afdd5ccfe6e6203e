// Package bench holds the benchmark harness that regenerates the
// paper's tables as Go benchmarks. Each BenchmarkTableN* target runs
// one cell (or column) of the corresponding paper table on a scaled
// grid and reports the simulated machine time as the custom metric
// "vsec" alongside host ns/op; cmd/chaosbench runs the full paper-size
// grid. Ablation benchmarks cover the design choices called out in
// DESIGN.md.
package bench

import (
	"testing"

	"chaos/internal/experiments"
	"chaos/internal/partition"
	"chaos/internal/registry"

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

// --- Mesh pipeline: wall time vs virtual time at P=1 and P=8 ---

// benchMesh runs the RCB pipeline and reports both trajectories: host
// wall time ("wallms", max across ranks) and the virtual time the same
// run charged ("vsec"). The ranks run on host cores, so compare the P=1
// and P=8 wallms on a host with 8+ cores for the wall-clock speedup.
func benchMesh(b *testing.B, procs int) {
	b.Helper()
	var wall, vsec float64
	for i := 0; i < b.N; i++ {
		ph, err := experiments.Run(experiments.Config{
			Procs: procs, Workload: experiments.MeshWorkload(benchMeshNodes),
			Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: benchIters,
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

func BenchmarkMeshPipelineP1(b *testing.B) { benchMesh(b, 1) }
func BenchmarkMeshPipelineP8(b *testing.B) { benchMesh(b, 8) }

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
