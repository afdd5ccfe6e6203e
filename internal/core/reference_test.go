package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/xrand"
)

// referenceExecutor is the iteration-major interpreter Loop.executor
// was before it ran strip-mined over loop-owned buffers, kept verbatim
// as the oracle of the differential test below — except that it hands
// back its ghost and accumulation buffers, which the test compares too.
// (The Gather and ScatterOp it sits on have their own oracles in
// package schedule.)
func (l *Loop) referenceExecutor() (ghosts, wbufs [][]float64) {
	c := l.s.C
	st := l.insp

	// Gather read operands: one communication phase per group.
	ghosts = make([][]float64, len(st.rGroups))
	for gi, g := range st.rGroups {
		ghosts[gi] = make([]float64, g.sched.NGhost())
		g.sched.Gather(c, g.arr.Data, ghosts[gi])
	}

	// Prepare write accumulation buffers (local section + ghost
	// slots), initialized to the reduction identity; one per group.
	wbufs = make([][]float64, len(st.wGroups))
	for gi, g := range st.wGroups {
		buf := make([]float64, len(g.arr.Data)+g.sched.NGhost())
		id := g.op.identity()
		for i := range buf {
			buf[i] = id
		}
		wbufs[gi] = buf
	}

	in := make([]float64, len(l.Reads))
	out := make([]float64, len(l.Writes))
	for i := range l.iterGl {
		for j := range l.Reads {
			pl := &st.rPlans[j]
			data := st.rGroups[pl.group].arr.Data
			ref := pl.ref[i]
			if ref < len(data) {
				in[j] = data[ref]
			} else {
				in[j] = ghosts[pl.group][ref-len(data)]
			}
		}
		l.Kernel(l.iterGl[i], in, out)
		for k := range l.Writes {
			pl := &st.wPlans[k]
			buf := wbufs[pl.group]
			buf[pl.ref[i]] = st.wGroups[pl.group].op.combine(buf[pl.ref[i]], out[k])
		}
	}
	c.Flops(len(l.iterGl) * (l.FlopsPerIter + len(l.Writes)))
	c.Words(len(l.iterGl) * (len(l.Reads) + len(l.Writes)))

	// Fold local contributions and scatter ghost contributions, one
	// communication phase per group.
	for gi, g := range st.wGroups {
		buf := wbufs[gi]
		nLocal := len(g.arr.Data)
		op := g.op
		for i := 0; i < nLocal; i++ {
			g.arr.Data[i] = op.combine(g.arr.Data[i], buf[i])
		}
		c.Flops(nLocal)
		g.sched.ScatterOp(c, g.arr.Data, buf[nLocal:], op.combine)
	}

	// One modification event per written array for this loop body.
	for _, w := range l.Writes {
		w.Arr.NoteWrite()
	}
	return ghosts, wbufs
}

// step runs Execute (or ExecuteNoReuse) over the executor under test
// or over the reference one, and returns the ghost and accumulation
// buffers the step left behind.
func (l *Loop) step(reference, noReuse bool) (ghosts, wbufs [][]float64) {
	if !reference {
		if noReuse {
			l.ExecuteNoReuse()
		} else {
			l.Execute()
		}
		for _, g := range l.insp.rGroups {
			ghosts = append(ghosts, g.ghost)
		}
		for _, g := range l.insp.wGroups {
			wbufs = append(wbufs, g.buf)
		}
		return ghosts, wbufs
	}
	if noReuse {
		l.Inspect()
	} else {
		l.s.C.Words(2 * (len(l.Reads) + len(l.Writes)))
		data, ind := l.dads()
		if !l.s.Reg.Check(&l.rec, data, ind) || l.insp == nil {
			l.Inspect()
		}
	}
	l.s.timed(TimerExecutor, func() { ghosts, wbufs = l.referenceExecutor() })
	return ghosts, wbufs
}

// execTrace is what one rank saw over a run: after every step a copy
// of every array, ghost buffer and accumulation buffer, and its clock.
type execTrace struct {
	bufs   [][][]float64
	clocks []float64
}

func (tr *execTrace) add(c *machine.Ctx, arrays []*Array, ghosts, wbufs [][]float64) {
	var snap [][]float64
	for _, a := range arrays {
		snap = append(snap, slices.Clone(a.Data))
	}
	for _, b := range append(slices.Clone(ghosts), wbufs...) {
		snap = append(snap, slices.Clone(b))
	}
	tr.bufs = append(tr.bufs, snap)
	tr.clocks = append(tr.clocks, c.Clock())
}

// diff names the first difference between two traces, or "".
func (tr *execTrace) diff(want *execTrace) string {
	if len(tr.clocks) != len(want.clocks) {
		return fmt.Sprintf("%d steps traced, reference %d", len(tr.clocks), len(want.clocks))
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range want.clocks {
		if len(tr.bufs[i]) != len(want.bufs[i]) {
			return fmt.Sprintf("step %d: %d buffers, reference %d", i, len(tr.bufs[i]), len(want.bufs[i]))
		}
		for b := range want.bufs[i] {
			if !slices.EqualFunc(tr.bufs[i][b], want.bufs[i][b], sameBits) {
				return fmt.Sprintf("step %d buffer %d: %v, reference %v", i, b, tr.bufs[i][b], want.bufs[i][b])
			}
		}
		if tr.clocks[i] != want.clocks[i] {
			return fmt.Sprintf("step %d: clock %v, reference %v", i, tr.clocks[i], want.clocks[i])
		}
	}
	return ""
}

// clockConfigs are the machines the differential test runs on: the
// calibrated iPSC/860, whose clocks must agree to the last bit, and
// three in which a single unit cost is 1 and everything else 0, so
// that a rank's clock is its count of messages sent, messages received
// or payload bytes moved.
func clockConfigs(p int) map[string]machine.Config {
	sends, recvs, bytes := machine.Zero(p), machine.Zero(p), machine.Zero(p)
	sends.SendOverhead, recvs.RecvOverhead, bytes.ByteTime = 1, 1, 1
	return map[string]machine.Config{"ipsc860": machine.IPSC860(p), "sends": sends, "recvs": recvs, "bytes": bytes}
}

// mix is a deterministic pseudo-random function of its arguments.
func mix(a, b int) int { return int(xrand.Hash64(uint64(a)<<32^uint64(b)) >> 1) }

// TestExecutorMatchesReference runs one program — steps with reuse, a
// data write, a Redistribute and the re-inspection it forces (the
// loop's retained buffers are re-carved to other sizes), a no-reuse
// step, an iteration repartition — over the strip-mined executor and
// over the reference interpreter, and demands bit-identical arrays,
// ghost buffers, accumulation buffers and per-rank clocks after every
// step: for all five reductions (Assign fed its NaN sentinel), with
// MergeAccesses on and off, for loops without reads and without
// writes, for local iteration counts around the strip length, for
// empty ranks and arrays with fewer elements than ranks, under a
// kernel that appends to its arguments, on both backends and on the
// counting machines (messages and bytes).
func TestExecutorMatchesReference(t *testing.T) {
	const blk = execBlock
	shapes := []struct{ p, n, nIter int }{
		{1, 40, 0}, {1, 40, 1}, {1, 40, blk - 1}, {1, 40, blk}, {1, 40, blk + 1}, {1, 97, 3*blk + 41},
		{3, 50, 2}, {3, 50, 3 * (blk - 1)}, {3, 50, 3 * blk}, {3, 50, 3*blk + 1}, {3, 211, 3 * (2*blk + 37)},
		{8, 5, 3}, {8, 5, 8*blk + 1},
	}
	type variant struct {
		name          string
		reads, writes bool
	}
	variants := []variant{{"reads+writes", true, true}, {"no reads", false, true}, {"no writes", true, false}}
	ops := []Reduce{Assign, Add, Max, Min, Mul}

	for _, sh := range shapes {
		for _, v := range variants {
			for _, merge := range []bool{false, true} {
				for _, op := range ops {
					if !v.writes && op != Add {
						continue // nothing to reduce
					}
					for name, cfg := range clockConfigs(sh.p) {
						for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
							if backend == machine.Real && name != "ipsc860" {
								continue
							}
							cfg.Backend = backend
							label := fmt.Sprintf("%v %s P=%d N=%d iters=%d %s merge=%v %v", backend, name, sh.p, sh.n, sh.nIter, v.name, merge, op)
							run := func(reference bool) []execTrace {
								traces := make([]execTrace, sh.p)
								err := machine.Run(cfg, func(c *machine.Ctx) {
									runDifferentialProgram(c, &traces[c.Rank()], sh.n, sh.nIter, v.reads, v.writes, merge, op, reference)
								})
								if err != nil {
									t.Fatalf("%s reference=%v: %v", label, reference, err)
								}
								return traces
							}
							want, got := run(true), run(false)
							for r := range want {
								if d := got[r].diff(&want[r]); d != "" {
									t.Errorf("%s rank %d: %s", label, r, d)
								}
							}
						}
					}
				}
			}
		}
	}
}

// runDifferentialProgram is the SPMD body of TestExecutorMatchesReference.
func runDifferentialProgram(c *machine.Ctx, tr *execTrace, n, nIter int, reads, writes, merge bool, op Reduce, reference bool) {
	s := NewSession(c)
	x, y, z := s.NewArray("x", n), s.NewArray("y", n), s.NewArray("z", n)
	// Magnitudes spread over many binades: any reordering of a sum shows.
	value := func(salt int) func(g int) float64 {
		return func(g int) float64 {
			return (float64(mix(g, salt)%2000) - 1000) * math.Pow(2, float64(mix(g, salt+1)%40-20))
		}
	}
	x.FillByGlobal(value(1))
	y.FillByGlobal(value(2))
	z.FillByGlobal(value(3))
	var inds [3]*IntArray
	for j := range inds {
		inds[j] = s.NewIntArray(fmt.Sprintf("ind%d", j), nIter)
		inds[j].FillByGlobal(func(g int) int { return mix(g, 10+j) % n })
	}
	var rd []Read
	var wr []Write
	if reads {
		rd = []Read{{x, inds[0]}, {x, inds[1]}, {z, inds[2]}}
	}
	if writes {
		// Two writes that MergeAccesses fuses into one buffer, and an
		// Assign (fed NaNs below) on an array the loop also reads.
		wr = []Write{{y, inds[0], op}, {y, inds[1], op}, {z, inds[2], Assign}}
	}
	kernel := func(iter int, in, out []float64) {
		a, b, d := float64(iter%13)-6, 1.0, 0.5
		if len(in) > 0 {
			a, b, d = in[0], in[1], in[2]
		}
		if len(out) > 0 {
			out[0] = 1.5*a + b
			out[1] = b - a*d
			out[2] = d + float64(iter)
			if iter%5 == 0 {
				out[2] = math.NaN() // the untouched sentinel: z keeps its value
			}
		}
		// Must not reach the neighbouring iteration's operands.
		_, _ = append(in, 1e300), append(out, -1e300)
	}
	loop := s.NewLoop("diff", nIter, rd, wr, 7, kernel)
	loop.MergeAccesses = merge
	arrays := []*Array{x, y, z}
	step := func(noReuse bool) {
		ghosts, wbufs := loop.step(reference, noReuse)
		tr.add(c, arrays, ghosts, wbufs)
	}

	step(false) // inspects
	step(false) // reuses
	x.FillByGlobal(value(4))
	step(false) // reuses: a data write leaves the schedules valid
	m := s.NewIntArray("map", n)
	m.FillByGlobal(func(g int) int { return mix(g, 5) % c.Procs() })
	s.Redistribute(s.MappingFromIntArray(m), arrays, nil)
	step(false) // re-inspects over the retained buffers
	step(false)
	step(true)
	loop.PartitionIterations(iterpart.AlmostOwnerComputes)
	step(false)
	step(false)
}

// A retained accumulation buffer that no longer matches its array and
// schedule is refused, not indexed.
func TestExecutorRefusesStaleBuffer(t *testing.T) {
	err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y := s.NewArray("x", 10), s.NewArray("y", 10)
		ind := s.NewIntArray("ind", 6)
		ind.FillByGlobal(func(g int) int { return (3 * g) % 10 })
		loop := s.NewLoop("stale", 6, []Read{{x, ind}}, []Write{{y, ind, Add}}, 1,
			func(_ int, in, out []float64) { out[0] = in[0] })
		loop.Execute()
		y.Data = append(y.Data, 0) // behind the registry's back
		loop.Execute()
	})
	if err == nil {
		t.Fatal("a resized array ran over its retained accumulation buffer")
	}
}
