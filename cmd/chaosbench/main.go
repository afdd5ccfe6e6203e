// Command chaosbench regenerates the tables of the paper's evaluation
// section (Ponnusamy, Saltz, Choudhary, SC'93) on the simulated
// iPSC/860.
//
// Usage:
//
//	chaosbench [-table N] [-quick] [-iters N] [-markdown]
//	chaosbench -crossover | -adaptive [-quick]
//
// With no -table flag every table (1-4) is produced. -quick runs a
// scaled-down grid (smaller meshes, fewer processors and iterations)
// that finishes in seconds; the full paper grid (10K/53K meshes, up to
// 64 simulated processors, 100 iterations) takes several minutes of
// host time. Each table's host regeneration time goes to stderr, so
// the tables on stdout are byte-identical from run to run.
//
// Table 2 carries one column beyond the paper: "ML Compiler Reuse"
// runs the MULTILEVEL partitioner (coarsen with heavy-edge matching,
// split the coarse graph by greedy graph growing, uncoarsen with FM
// refinement),
// showing near-RSB executor times with the partitioner cost collapsed.
// On the multi-processor grids MULTILEVEL coarsens distributedly, so
// its partitioner cell — unlike RSB's replicated solve — also shrinks
// with the processor count. -crossover likewise includes MULTILEVEL in
// the amortization study.
//
// -adaptive emits the adaptive-mesh REDISTRIBUTE study as JSON: the
// mesh is adapted (edges rewired) every epoch and repartitioned
// through a Repartitioner, so warm, ladder-reusing MULTILEVEL runs
// are compared against same-graph cold runs — the incremental
// repartitioning column the paper could not afford to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"chaos/internal/experiments"
	"chaos/internal/partition"
	"chaos/internal/report"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate (1-4); 0 = all")
		quick     = flag.Bool("quick", false, "scaled-down grid for a fast run")
		iters     = flag.Int("iters", 0, "override executor iteration count")
		markdown  = flag.Bool("markdown", false, "emit markdown tables")
		crossover = flag.Bool("crossover", false, "partitioner amortization/crossover study instead of tables")
		adaptive  = flag.Bool("adaptive", false, "adaptive-mesh cold/warm repartition amortization study, emitted as JSON")
	)
	flag.Parse()

	grid := experiments.PaperGrid()
	if *quick {
		grid = experiments.QuickGrid()
	}
	if *iters > 0 {
		grid.Iters = *iters
	}

	if *adaptive {
		// The incremental-repartitioning column: an adaptive mesh
		// repartitioned with MULTILEVEL every epoch through a
		// Repartitioner, warm ladder-reusing runs compared against
		// same-graph cold runs. ParallelThreshold is lowered so the
		// ladder path (the one with retained state) also engages on
		// the -quick grid's smaller mesh.
		rep, err := experiments.AdaptiveStudy(experiments.AdaptiveConfig{
			Procs: grid.Table2Procs, NNode: grid.MeshB, Iters: grid.Iters,
			Spec: partition.Spec{
				Method:            partition.MethodMultilevel,
				ParallelThreshold: 256,
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *crossover {
		w := experiments.MeshWorkload(grid.MeshB)
		rep, err := experiments.CrossoverReport(grid.Table2Procs, w,
			[]partition.Spec{
				{Method: partition.MethodBlock},
				{Method: partition.MethodRCB},
				{Method: partition.MethodRSB},
				{Method: partition.MethodMultilevel},
			}, grid.Iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep)
		return
	}

	type gen struct {
		id int
		fn func(experiments.Grid) (*report.Table, error)
	}
	gens := []gen{
		{1, experiments.Table1},
		{2, experiments.Table2},
		{3, experiments.Table3},
		{4, experiments.Table4},
	}
	ran := false
	for _, g := range gens {
		if *table != 0 && *table != g.id {
			continue
		}
		ran = true
		start := time.Now()
		t, err := g.fn(grid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaosbench: table %d: %v\n", g.id, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
		fmt.Fprintf(os.Stderr, "[table %d regenerated in %.1fs host time]\n", g.id, time.Since(start).Seconds())
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "chaosbench: unknown table %d (have 1-4)\n", *table)
		os.Exit(2)
	}
}
