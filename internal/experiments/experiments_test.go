package experiments

import (
	"math"
	"strings"
	"testing"

	"chaos/internal/partition"
)

// small returns a cheap mesh workload for shape tests.
func small() *Workload { return MeshWorkload(1000) }

func TestScheduleReuseWinsBigly(t *testing.T) {
	// Paper Table 1 shape: no-reuse is an order of magnitude (or
	// more) slower over repeated executor iterations. Run at the
	// paper's 100 iterations (Config.Iters' default): the ratio is
	// (fixed + n·(inspector + executor)) / (fixed + inspector +
	// n·executor) with a fixed partition + remap cost on both sides,
	// so at a handful of iterations it measures how small the
	// inspector is against that fixed cost — an inspector that builds
	// each access pattern once reads 3.7x at 20 and 5.9x at 100 —
	// where the paper's claim is about the per-iteration cost at its
	// own count.
	base := Config{Procs: 4, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Iters: 100}
	withCfg := base
	withCfg.Reuse = true
	withoutCfg := base
	withoutCfg.Reuse = false
	with, err := Run(withCfg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(withoutCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := without.Total() / with.Total(); ratio < 4 {
		t.Errorf("reuse speedup only %.2fx (with=%.3fs without=%.3fs)", ratio, with.Total(), without.Total())
	}
	// Executor time itself must be nearly identical.
	if math.Abs(with.Executor-without.Executor) > 0.15*with.Executor {
		t.Errorf("executor differs with reuse: %v vs %v", with.Executor, without.Executor)
	}
}

func TestIrregularBeatsBlockExecutor(t *testing.T) {
	// Paper Table 2/4 shape: RCB or RSB executor is 2-3x faster than
	// BLOCK executor on the renumbered mesh.
	for _, part := range []partition.Method{partition.MethodRCB, partition.MethodRSB} {
		irr, err := Run(Config{Procs: 8, Workload: small(), Spec: partition.Spec{Method: part}, Reuse: true, Iters: 10})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := Run(Config{Procs: 8, Workload: small(), Spec: partition.Spec{Method: partition.MethodBlock}, Reuse: true, Iters: 10})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := blk.Executor / irr.Executor; ratio < 1.5 {
			t.Errorf("%s executor speedup over BLOCK only %.2fx (%v vs %v)",
				part, ratio, irr.Executor, blk.Executor)
		}
	}
}

func TestRSBPartitionerCostlierThanRCB(t *testing.T) {
	// Paper Table 2 shape: spectral bisection pays far more
	// partitioning time than coordinate bisection (258s vs 1.6s),
	// with an executor at least as good.
	rcb, err := Run(Config{Procs: 8, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	rsb, err := Run(Config{Procs: 8, Workload: small(), Spec: partition.Spec{Method: partition.MethodRSB}, Reuse: true, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rsb.Partition+rsb.GraphGen < 3*(rcb.Partition+rcb.GraphGen) {
		t.Errorf("RSB partitioning (%.4fs) not clearly costlier than RCB (%.4fs)",
			rsb.Partition+rsb.GraphGen, rcb.Partition+rcb.GraphGen)
	}
	if rsb.Executor > 1.3*rcb.Executor {
		t.Errorf("RSB executor (%v) much worse than RCB (%v)", rsb.Executor, rcb.Executor)
	}
}

func TestCompilerWithinTenPercentOfHand(t *testing.T) {
	// The paper's headline: compiler-generated code within about 10%
	// of the hand-parallelized version.
	hand, err := Run(Config{Procs: 4, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(Config{Procs: 4, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 20, Compiler: true})
	if err != nil {
		t.Fatal(err)
	}
	over := comp.Total()/hand.Total() - 1
	if over > 0.15 {
		t.Errorf("compiler overhead %.1f%% exceeds 15%% (hand=%.3fs compiler=%.3fs)",
			100*over, hand.Total(), comp.Total())
	}
	if over < -0.05 {
		t.Errorf("compiler implausibly faster than hand by %.1f%%", -100*over)
	}
}

func TestCompilerRejectsMDWorkload(t *testing.T) {
	if _, err := Run(Config{Procs: 2, Workload: Water648(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 1, Compiler: true}); err == nil {
		t.Fatal("compiler mode accepted MD workload")
	}
}

func TestMDWorkloadRuns(t *testing.T) {
	ph, err := Run(Config{Procs: 4, Workload: Water648(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ph.Executor <= 0 || ph.Inspector <= 0 {
		t.Errorf("phases empty: %+v", ph)
	}
}

func TestScalingWithProcs(t *testing.T) {
	// Executor time must drop as processors are added.
	p4, err := Run(Config{Procs: 4, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	p16, err := Run(Config{Procs: 16, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p16.Executor >= p4.Executor {
		t.Errorf("executor did not scale: P=4 %.4fs, P=16 %.4fs", p4.Executor, p16.Executor)
	}
}

func TestDeterministicPhases(t *testing.T) {
	cfg := Config{Procs: 4, Workload: small(), Spec: partition.Spec{Method: partition.MethodRCB}, Reuse: true, Iters: 3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wall is host time and inherently varies run to run; every
	// virtual-clock phase must be bit-identical.
	a.Wall, b.Wall = 0, 0
	if a != b {
		t.Errorf("phases not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("quick tables still take a few seconds")
	}
	g := Grid{
		MeshA: 500, MeshB: 800,
		ProcsA: []int{2}, ProcsB: []int{4}, ProcsMD: []int{2},
		Table2Procs: 4, Iters: 3,
	}
	t1, err := Table1(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t1.String(), "Schedule Reuse") {
		t.Error("table 1 malformed")
	}
	t2, err := Table2(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2.String(), "RSB Compiler Reuse") {
		t.Error("table 2 malformed")
	}
	t3, err := Table3(g)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Table4(g)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 row ordering: no-reuse > reuse everywhere.
	for c := range t1.Cols {
		if t1.Cells[0][c] <= t1.Cells[1][c] {
			t.Errorf("table1 col %s: no-reuse %.3f <= reuse %.3f", t1.Cols[c], t1.Cells[0][c], t1.Cells[1][c])
		}
	}
	// Table 4 (BLOCK) executor >= Table 3 (RCB) executor per column.
	for c := range t3.Cols {
		ex3 := t3.Cells[3][c]
		ex4 := t4.Cells[2][c]
		if ex4 < ex3 {
			t.Errorf("col %s: BLOCK executor %.3f beat RCB %.3f", t3.Cols[c], ex4, ex3)
		}
	}
	_ = t2
}

func TestWorkloadCaching(t *testing.T) {
	a, b := MeshWorkload(1000), MeshWorkload(1000)
	if a != b {
		t.Error("mesh workload not cached")
	}
	if Water648() != Water648() {
		t.Error("water workload not cached")
	}
}
