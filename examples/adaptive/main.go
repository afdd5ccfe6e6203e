// Adaptive example: incremental repartitioning of an adaptive mesh —
// the REDISTRIBUTE experiment the paper could not afford to run. An
// Euler edge sweep runs over an unstructured mesh whose connectivity
// is "adapted" every few time steps (a fraction of edges rewired, as
// an adaptive CFD solver does), and the mesh is repartitioned with
// MULTILEVEL at every adaptation through a chaos.Repartitioner:
//
//   - Between adaptations, every Execute reuses the saved inspector,
//     and Repartitioner.Map returns its cached mapping without any
//     work (the paper's Section 3 unchanged-input guard).
//   - At each adaptation the indirection arrays change, so Map must
//     repartition — but instead of a cold MULTILEVEL run it restricts
//     the previous partition onto the retained coarsening ladder and
//     re-runs refinement only, a fraction of the cold cost.
//   - The typed PartitionSpec lowers ParallelThreshold so the
//     distributed ladder path (the one with retained state) engages
//     on this demo-sized mesh.
//
// The program prints the cold-vs-warm partition time per epoch plus
// the remap traffic each repartition causes — the Table-2-style
// column chaosbench -adaptive emits as JSON.
//
// Run: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"chaos/chaos"
	"chaos/internal/mesh"
	"chaos/internal/xrand"
)

func main() {
	const (
		procs  = 8
		steps  = 40
		adapt  = 10 // adapt connectivity every this many steps
		rewire = 0.05
	)
	m := mesh.Generate(4000, 7)
	nedge := m.NEdge()
	fmt.Printf("adaptive sweep: %d nodes, %d edges, adapting %d%% of edges every %d steps\n",
		m.NNode, nedge, int(rewire*100), adapt)

	// Precompute the rewired edge lists for each adaptation epoch so
	// every rank sees identical "mesh adaptation" results.
	epochs := 1 + (steps-1)/adapt
	e1s := make([][]int, epochs)
	e2s := make([][]int, epochs)
	e1s[0], e2s[0] = m.E1, m.E2
	rng := xrand.New(99)
	for ep := 1; ep < epochs; ep++ {
		e1 := append([]int(nil), e1s[ep-1]...)
		e2 := append([]int(nil), e2s[ep-1]...)
		for k := 0; k < int(rewire*float64(nedge)); k++ {
			// Re-point one endpoint of a random edge at a random
			// vertex (index-space rewiring is fine here; the point is
			// that the access pattern changed).
			e := rng.Intn(nedge)
			e2[e] = rng.Intn(m.NNode)
		}
		e1s[ep], e2s[ep] = e1, e2
	}

	spec := chaos.PartitionSpec{
		Method:            chaos.MethodMultilevel,
		ParallelThreshold: 512, // engage the ladder path on this mesh size
	}

	err := chaos.Run(chaos.IPSC860(procs), func(s *chaos.Session) {
		x := s.NewArray("x", m.NNode)
		y := s.NewArray("y", m.NNode)
		x.FillByGlobal(m.InitialState)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", nedge)
		e2 := s.NewIntArray("end_pt2", nedge)
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })
		in := chaos.GeoColInput{Link1: e1, Link2: e2}

		rp, err := s.NewRepartitioner(spec)
		if err != nil {
			panic(err)
		}

		loop := s.NewLoop("sweep", nedge,
			[]chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
			mesh.EulerFlops, mesh.EulerFlux)
		loop.PartitionIterations(chaos.AlmostOwnerComputes)

		var prevFull []int
		epoch := 0
		for step := 0; step < steps; step++ {
			if step > 0 && step%adapt == 0 {
				epoch++
				// Mesh adaptation: rewrite the indirection arrays,
				// which bumps their lastmod timestamps so both the
				// inspector and the mapper guard see the change.
				cur1, cur2 := e1s[epoch], e2s[epoch]
				e1.FillByGlobal(func(g int) int { return cur1[g] })
				e2.FillByGlobal(func(g int) int { return cur2[g] })
			}
			pt0 := s.Timer(chaos.TimerPartition)
			st0 := rp.Stats()
			mapping, err := rp.Map(m.NNode, in, procs)
			if err != nil {
				panic(err)
			}
			partS := s.C.MaxFloat(s.Timer(chaos.TimerPartition) - pt0)
			st := rp.Stats()

			if st.Cold+st.Warm > st0.Cold+st0.Warm {
				// A repartition actually ran: redistribute onto the
				// new mapping and report the epoch.
				// Only rank 0 reports, so the part vector goes to it
				// alone.
				full := s.C.GatherInts(0, mapping.LocalPart())
				s.Redistribute(mapping, []*chaos.Array{x, y}, nil)
				if s.C.Rank() == 0 {
					moved := 0
					if prevFull != nil {
						for i, p := range full {
							if prevFull[i] != p {
								moved++
							}
						}
					}
					prevFull = full
					cut := 0
					for i := range e1s[epoch] {
						u, v := e1s[epoch][i], e2s[epoch][i]
						if u != v && full[u] != full[v] {
							cut++
						}
					}
					mode := "cold"
					if st.Warm > st0.Warm {
						mode = "warm"
					}
					fmt.Printf("epoch %d: %-4s partition %6.3fs (virtual), cut %d, remap moved %d of %d vertices\n",
						epoch, mode, partS, cut, moved, m.NNode)
				}
			}
			loop.Execute()
		}

		st := rp.Stats()
		ins := s.TimerMax(chaos.TimerInspector)
		ex := s.TimerMax(chaos.TimerExecutor)
		if s.C.Rank() == 0 {
			fmt.Printf("%d sweeps across %d adaptation epochs: %d cold run, %d warm ladder reuses, %d cache hits\n",
				steps, epochs, st.Cold, st.Warm, st.Hits)
			fmt.Printf("inspector %.3fs, executor %.3fs (virtual)\n", ins, ex)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
