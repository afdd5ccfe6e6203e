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

// The executor calls its kernel once per step on a rank that owns
// iterations, and not at all on one that owns none. The call holds all
// the locally owned iterations in order and, per access, exactly what
// the inspector compiled, no copy: a read's Vals is the array's own
// storage, Data itself followed by the ghost tail up to the end of the
// access's ghosts (n + off + NGhost elements); a write's Buf is its
// accumulation buffer, Add and Op its reduction; every Ref is the
// access's whole reference vector. Iters and the Refs are exactly
// len(Iters) long with no spare capacity. On loops with and without
// reads and writes, under ADD and MAX, and after the iterations are
// repartitioned.
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
					calls := 0
					phase := ""
					kernel := KernelFunc(func(st *Strip) {
						calls++
						m := len(st.Iters)
						if cap(st.Iters) != m {
							t.Errorf("rank %d %s: call holds %d iterations with cap %d",
								c.Rank(), phase, m, cap(st.Iters))
						}
						if len(st.Reads) != sh.reads || len(st.Writes) != sh.writes {
							t.Fatalf("rank %d %s: call has %d reads and %d writes, want %d and %d",
								c.Rank(), phase, len(st.Reads), len(st.Writes), sh.reads, sh.writes)
						}
						refOK := func(ref, all []int) bool {
							return cap(ref) == m && same(ref, all)
						}
						for j, src := range st.Reads {
							g := &loop.insp.rGroups[j]
							nx := len(x.Data)
							if len(src.Vals) < nx || !same(src.Vals[:nx], x.Data) ||
								len(src.Vals) != nx+g.off+g.sched.NGhost() || !refOK(src.Ref, g.ref) {
								t.Errorf("rank %d %s: read %d is not the array's storage up to its ghosts and the reference vector",
									c.Rank(), phase, j)
							}
						}
						for k, tg := range st.Writes {
							g := &loop.insp.wGroups[k]
							if !same(tg.Buf, g.buf) || !refOK(tg.Ref, g.ref) || tg.Add != (wr[k].Op == Add) || tg.Op == nil {
								t.Errorf("rank %d %s: write %d is not the accumulation buffer, reference vector and %v",
									c.Rank(), phase, k, wr[k].Op)
							}
						}
						seen = append(seen, st.Iters...)
					})
					loop = s.NewLoop("strips", nIter, rd, wr, 1, kernel)
					run := func(name string) {
						phase, seen, calls = name, seen[:0], 0
						loop.Execute()
						if want := min(len(loop.iterGl), 1); calls != want {
							t.Errorf("rank %d %s: %d kernel calls on %d local iterations, want %d",
								c.Rank(), phase, calls, len(loop.iterGl), want)
						}
						if !slices.Equal(seen, loop.iterGl) {
							t.Errorf("rank %d %s: the call covers %v, want the local iterations %v",
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

// The differential oracles compare accesses in the layout the executor
// had before ghosts sat in the read arrays' tails: a ghost buffer per
// read and [local | ghost slots] per write, references counted from
// the end of the local section.

// ghosts is the stretch of the read array's tail that g's gather fills.
func (g *gatherGroup) ghosts() []float64 {
	lo, hi := g.n+g.off, g.n+g.off+g.sched.NGhost()
	return g.arr.store[lo:hi:hi]
}

// packed is a copy of g's accumulation buffer without the off slots g
// does not use.
func (g *scatterGroup) packed() []float64 {
	n := len(g.buf) - g.off - g.sched.NGhost()
	return slices.Concat(g.buf[:n], g.buf[n+g.off:])
}

// unshifted is a copy of ref with off taken out of every reference past
// the n-element local section.
func unshifted(ref []int, n, off int) []int {
	out := slices.Clone(ref)
	for i, r := range out {
		if r >= n {
			out[i] = r - off
		}
	}
	return out
}
