package chaos_test

import (
	"fmt"

	"chaos/chaos"
)

// ExampleRun shows the smallest complete program: an SPMD body running
// on every simulated processor, a BLOCK-distributed array, and a
// collective reduction. Only rank 0 prints.
func ExampleRun() {
	const n, p = 8, 2
	err := chaos.Run(chaos.ZeroCost(p), func(s *chaos.Session) {
		x := s.NewArray("x", n) // REAL*8 x(n), BLOCK-distributed
		x.FillByGlobal(func(g int) float64 { return float64(g) })
		local := 0.0
		for _, v := range x.Data {
			local += v
		}
		total := s.C.SumFloat(local) // collective: every rank participates
		if s.C.Rank() == 0 {
			fmt.Printf("%d ranks hold x(0:%d); sum %.0f\n", s.C.Procs(), n-1, total)
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: 2 ranks hold x(0:7); sum 28
}

// ExampleSession_SetPartitioning walks the paper's Figure 2 pipeline
// on a 16-vertex ring: CONSTRUCT a GeoCoL graph from the edge list,
// SET the distribution BY PARTITIONING it with a typed multilevel
// spec, REDISTRIBUTE the data arrays, and run one inspector/executor
// sweep that accumulates each vertex's neighbors.
func ExampleSession_SetPartitioning() {
	const n, p = 16, 2
	err := chaos.Run(chaos.ZeroCost(p), func(s *chaos.Session) {
		x := s.NewArray("x", n)
		y := s.NewArray("y", n)
		x.FillByGlobal(func(g int) float64 { return float64(g + 1) })
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", n) // edge i links i and i+1 mod n
		e2 := s.NewIntArray("end_pt2", n)
		e1.FillByGlobal(func(g int) int { return g })
		e2.FillByGlobal(func(g int) int { return (g + 1) % n })

		// C$ CONSTRUCT G (n, LINK(end_pt1, end_pt2))
		g := s.Construct(n, chaos.GeoColInput{Link1: e1, Link2: e2})
		// C$ SET distfmt BY PARTITIONING G USING MULTILEVEL
		m, err := s.SetPartitioning(g, chaos.PartitionSpec{Method: chaos.MethodMultilevel}, p)
		if err != nil {
			panic(err)
		}
		// C$ REDISTRIBUTE reg(distfmt)
		s.Redistribute(m, []*chaos.Array{x, y}, nil)

		loop := s.NewLoop("sweep", n,
			[]chaos.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]chaos.Write{{Arr: y, Ind: e1, Op: chaos.Add}, {Arr: y, Ind: e2, Op: chaos.Add}},
			2, func(_ int, in, out []float64) {
				out[0] = in[1] // each endpoint accumulates its neighbor
				out[1] = in[0]
			})
		loop.PartitionIterations(chaos.AlmostOwnerComputes)
		loop.Execute()

		local := 0.0
		for _, v := range y.Data {
			local += v
		}
		sum := s.C.SumFloat(local)
		sizes := s.C.AllGatherInts([]int{len(x.MyGlobals())})
		if s.C.Rank() == 0 {
			fmt.Printf("parts hold %v vertices; neighbor-sum checksum %.0f\n", sizes, sum)
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: parts hold [8 8] vertices; neighbor-sum checksum 272
}

// ExampleParseSpec shows the two interchangeable spellings of a
// partitioner selection: the Fortran-D-style string the front end
// consumes and the typed PartitionSpec, which round-trip through
// ParseSpec / String.
func ExampleParseSpec() {
	sp, err := chaos.ParseSpec("MULTILEVEL(CoarsenTo=200,Seed=7)")
	if err != nil {
		panic(err)
	}
	fmt.Println(sp.Method, sp.CoarsenTo, sp.Seed)
	fmt.Println(sp.String())
	// Output:
	// MULTILEVEL 200 7
	// MULTILEVEL(CoarsenTo=200,Seed=7)
}
