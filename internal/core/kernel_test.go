package core

import (
	"fmt"
	"slices"
	"testing"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
)

// stripCall is what a recording kernel saw in one Strip call.
type stripCall struct {
	iters                  []int
	itersCap, inLen, inCap int
	outLen, outCap         int
}

// The executor hands its kernel the locally owned iterations in order,
// in strips of at most execBlock, each strip's operand and result
// blocks exactly len(iters)·R and len(iters)·W long with no spare
// capacity — on loops with and without reads and writes, and after the
// iterations are repartitioned.
func TestKernelStripContract(t *testing.T) {
	const procs, n = 2, 50
	shapes := []struct{ reads, writes int }{{2, 1}, {0, 2}, {3, 0}}
	for _, local := range []int{0, 1, 255, 256, 257, 513} {
		for _, sh := range shapes {
			name := fmt.Sprintf("local=%d/R=%d,W=%d", local, sh.reads, sh.writes)
			t.Run(name, func(t *testing.T) {
				err := machine.Run(machine.Zero(procs), func(c *machine.Ctx) {
					s := NewSession(c)
					nIter := procs * local
					x, y := s.NewArray("x", n), s.NewArray("y", n)
					x.FillByGlobal(func(g int) float64 { return float64(g) })
					var rd []Read
					var wr []Write
					for j := 0; j < max(sh.reads, sh.writes); j++ {
						ind := s.NewIntArray(fmt.Sprintf("ind%d", j), nIter)
						ind.FillByGlobal(func(g int) int { return mix(g, j) % n })
						if j < sh.reads {
							rd = append(rd, Read{x, ind})
						}
						if j < sh.writes {
							wr = append(wr, Write{y, ind, Add})
						}
					}
					var calls []stripCall
					kernel := KernelFunc(func(iters []int, in, out []float64) {
						calls = append(calls, stripCall{slices.Clone(iters), cap(iters),
							len(in), cap(in), len(out), cap(out)})
						clear(out)
					})
					loop := s.NewLoop("strips", nIter, rd, wr, 1, kernel)
					check := func(phase string) {
						var seen []int
						for k, cl := range calls {
							m := len(cl.iters)
							if m == 0 || m > execBlock {
								t.Errorf("rank %d %s: strip %d holds %d iterations, want 1..%d",
									c.Rank(), phase, k, m, execBlock)
							}
							if cl.itersCap != m || cl.inLen != m*sh.reads || cl.inCap != cl.inLen ||
								cl.outLen != m*sh.writes || cl.outCap != cl.outLen {
								t.Errorf("rank %d %s: strip %d of %d iterations: iters cap %d, in len/cap %d/%d, out len/cap %d/%d",
									c.Rank(), phase, k, m, cl.itersCap, cl.inLen, cl.inCap, cl.outLen, cl.outCap)
							}
							seen = append(seen, cl.iters...)
						}
						if !slices.Equal(seen, loop.iterGl) {
							t.Errorf("rank %d %s: strips cover %v, want the local iterations %v",
								c.Rank(), phase, seen, loop.iterGl)
						}
						calls = calls[:0]
					}
					loop.Execute()
					if len(loop.iterGl) != local {
						t.Errorf("rank %d owns %d iterations, want %d", c.Rank(), len(loop.iterGl), local)
					}
					check("inspecting step")
					loop.Execute()
					check("reusing step")
					loop.PartitionIterations(iterpart.AlmostOwnerComputes)
					loop.Execute()
					check("after PartitionIterations")
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
