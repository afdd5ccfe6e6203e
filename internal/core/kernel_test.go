package core

import (
	"fmt"
	"slices"
	"testing"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
)

// same reports whether a and b are the same slice: one backing array,
// one length.
func same[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// The executor hands its kernel the locally owned iterations in order,
// in strips of at most execBlock, and per access exactly what the
// inspector compiled, no copy: a read's Local is the array's local
// section and its Ghost the buffer the step's gather filled; a write's
// Buf is its accumulation buffer, Add and Op its reduction; every Ref is
// the strip's slice of the access's reference vector. Iters and the
// Refs are exactly len(Iters) long with no spare capacity. On loops
// with and without reads and writes, under ADD and MAX, and after the
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
							wr = append(wr, Write{y, ind, []Reduce{Add, Max}[j%2]})
						}
					}
					var loop *Loop
					var seen []int
					phase := ""
					kernel := KernelFunc(func(st *Strip) {
						m, lo := len(st.Iters), len(seen)
						if m == 0 || m > execBlock || cap(st.Iters) != m {
							t.Errorf("rank %d %s: strip at %d holds %d iterations (cap %d), want 1..%d",
								c.Rank(), phase, lo, m, cap(st.Iters), execBlock)
						}
						if len(st.Reads) != sh.reads || len(st.Writes) != sh.writes {
							t.Fatalf("rank %d %s: strip has %d reads and %d writes, want %d and %d",
								c.Rank(), phase, len(st.Reads), len(st.Writes), sh.reads, sh.writes)
						}
						refOK := func(ref, all []int) bool {
							return cap(ref) == m && same(ref, all[lo:lo+m])
						}
						for j, src := range st.Reads {
							g := &loop.insp.rGroups[j]
							if !same(src.Local, x.Data) || !same(src.Ghost, g.ghost) || !refOK(src.Ref, g.ref) {
								t.Errorf("rank %d %s: strip at %d: read %d is not the local section, ghost buffer and reference slice",
									c.Rank(), phase, lo, j)
							}
						}
						for k, tg := range st.Writes {
							g := &loop.insp.wGroups[k]
							if !same(tg.Buf, g.buf) || !refOK(tg.Ref, g.ref) || tg.Add != (wr[k].Op == Add) || tg.Op == nil {
								t.Errorf("rank %d %s: strip at %d: write %d is not the accumulation buffer, reference slice and %v",
									c.Rank(), phase, lo, k, wr[k].Op)
							}
						}
						seen = append(seen, st.Iters...)
					})
					loop = s.NewLoop("strips", nIter, rd, wr, 1, kernel)
					run := func(name string) {
						phase, seen = name, seen[:0]
						loop.Execute()
						if !slices.Equal(seen, loop.iterGl) {
							t.Errorf("rank %d %s: strips cover %v, want the local iterations %v",
								c.Rank(), phase, seen, loop.iterGl)
						}
					}
					run("inspecting step")
					if len(loop.iterGl) != local {
						t.Errorf("rank %d owns %d iterations, want %d", c.Rank(), len(loop.iterGl), local)
					}
					run("reusing step")
					loop.PartitionIterations(iterpart.AlmostOwnerComputes)
					run("after PartitionIterations")
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
