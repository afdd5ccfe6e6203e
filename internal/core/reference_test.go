package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/remap"
	"chaos/internal/schedule"
	"chaos/internal/ttable"
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

	// Prepare write accumulation buffers (local section + off unused
	// slots + ghost slots), initialized to the reduction identity; one
	// per group.
	wbufs = make([][]float64, len(st.wGroups))
	for gi, g := range st.wGroups {
		buf := make([]float64, len(g.arr.Data)+g.off+g.sched.NGhost())
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
			g := &st.rGroups[j]
			data := g.arr.Data
			ref := g.ref[i]
			if ref < len(data) {
				in[j] = data[ref]
			} else {
				in[j] = ghosts[j][ref-len(data)-g.off]
			}
		}
		l.Kernel.Strip(oneIterStrip(l.iterGl[i:i+1:i+1], in, out))
		for k := range l.Writes {
			g := &st.wGroups[k]
			buf := wbufs[k]
			buf[g.ref[i]] = g.op.combine(buf[g.ref[i]], out[k])
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
		g.sched.ScatterOp(c, g.arr.Data, buf[nLocal+g.off:], op.combine)
	}

	// One modification event per written array for this loop body.
	for _, w := range l.Writes {
		w.Arr.NoteWrite()
	}
	return ghosts, wbufs
}

// oneIterStrip adapts referenceExecutor's kernel call to the strip
// contract: the strip of the one iteration iters[0], whose read j is
// in[j] and whose write k adds into out[k]. out[k] starts at -0, the
// additive identity, so it ends as the contribution bit for bit.
func oneIterStrip(iters []int, in, out []float64) *Strip {
	st := &Strip{Iters: iters}
	for j := range in {
		st.Reads = append(st.Reads, Source{Vals: in, Ref: []int{j}})
	}
	for k := range out {
		out[k] = math.Copysign(0, -1)
		st.Writes = append(st.Writes, Target{Buf: out, Ref: []int{k}, Add: true, Op: Add.combine})
	}
	return st
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
			ghosts = append(ghosts, g.ghosts())
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
// step, an iteration repartition — over the executor and
// over the reference interpreter, and demands bit-identical arrays,
// ghost buffers, accumulation buffers and per-rank clocks after every
// step: for all five reductions (Assign fed its NaN sentinel), for
// loops without reads and without writes, for local iteration counts around 256, for
// empty ranks and arrays with fewer elements than ranks, under a
// kernel that appends to its arguments, on the calibrated machine and
// on the counting machines (messages and bytes).
func TestExecutorMatchesReference(t *testing.T) {
	const blk = 256
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
			for _, op := range ops {
				if !v.writes && op != Add {
					continue // nothing to reduce
				}
				for name, cfg := range clockConfigs(sh.p) {
					label := fmt.Sprintf("%s P=%d N=%d iters=%d %s %v", name, sh.p, sh.n, sh.nIter, v.name, op)
					run := func(reference bool) []execTrace {
						traces := make([]execTrace, sh.p)
						err := machine.Run(cfg, func(c *machine.Ctx) {
							runDifferentialProgram(c, &traces[c.Rank()], sh.n, sh.nIter, v.reads, v.writes, op, reference)
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

// runDifferentialProgram is the SPMD body of TestExecutorMatchesReference.
func runDifferentialProgram(c *machine.Ctx, tr *execTrace, n, nIter int, reads, writes bool, op Reduce, reference bool) {
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
		// Two writes to one array, and an Assign (fed NaNs below) on an
		// array the loop also reads.
		wr = []Write{{y, inds[0], op}, {y, inds[1], op}, {z, inds[2], Assign}}
	}
	nR, nW := len(rd), len(wr)
	kernel := KernelFunc(func(st *Strip) {
		for i, iter := range st.Iters {
			a, b, d := float64(iter%13)-6, 1.0, 0.5
			if nR > 0 {
				a, b, d = st.Reads[0].At(i), st.Reads[1].At(i), st.Reads[2].At(i)
			}
			if nW > 0 {
				o2 := d + float64(iter)
				if iter%5 == 0 {
					o2 = math.NaN() // the untouched sentinel: z keeps its value
				}
				st.Writes[0].Combine(i, 1.5*a+b)
				st.Writes[1].Combine(i, b-a*d)
				st.Writes[2].Combine(i, o2)
			}
		}
		// Must not reach past the strip's iterations or references.
		_ = append(st.Iters, -1)
		for j := range st.Reads {
			_ = append(st.Reads[j].Ref, 0)
		}
		for k := range st.Writes {
			_ = append(st.Writes[k].Ref, 0)
		}
	})
	loop := s.NewLoop("diff", nIter, rd, wr, 7, kernel)
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
			perIter(func(_ int, in, out []float64) { out[0] = in[0] }))
		loop.Execute()
		y.Data = append(y.Data, 0) // behind the registry's back
		loop.Execute()
	})
	if err == nil {
		t.Fatal("a resized array ran over its retained accumulation buffer")
	}
}

// referenceInspect is the per-access inspector Loop.Inspect was before
// it built each distinct access pattern once — one BuildGather per
// access, whatever the accesses have in common — kept as the oracle of
// TestInspectorMatchesReference.
func (l *Loop) referenceInspect() {
	l.s.timed(TimerInspector, func() {
		data, ind := l.dads()
		st := &inspectorState{}
		var b schedule.Builder

		// build runs the inspector for one access that reaches arr
		// through the indirection array ia, its ghosts off elements
		// behind the local section.
		build := func(arr *Array, ia *IntArray, off int) (*schedule.Schedule, []int) {
			var recycled []int
			if n := len(st.refs); l.insp != nil && n < len(l.insp.refs) {
				recycled = l.insp.refs[n]
			}
			sch, ref := b.BuildGather(l.s.C, arr.res, len(arr.Data), ia.Data, schedule.Options{GhostOffset: off}, nil, recycled)
			st.refs = append(st.refs, ref)
			return sch, ref
		}
		off := 0
		for _, r := range l.Reads {
			g := gatherGroup{arr: r.Arr, n: len(r.Arr.Data), off: off}
			g.sched, g.ref = build(r.Arr, r.Ind, off)
			off += g.sched.NGhost()
			g.arr.reserve(off)
			st.rGroups = append(st.rGroups, g)
		}
		for _, w := range l.Writes {
			g := scatterGroup{arr: w.Arr, op: w.Op, combine: w.Op.combine}
			g.sched, g.ref = build(w.Arr, w.Ind, 0)
			st.wGroups = append(st.wGroups, g)
		}

		// Carve the accumulation buffers out of the loop's slab.
		total := 0
		for _, g := range st.wGroups {
			total += len(g.arr.Data) + g.sched.NGhost()
		}
		if cap(l.store) < total {
			l.store = make([]float64, total)
		}
		rest := l.store[:total]
		carve := func(n int) []float64 {
			b := rest[:n:n]
			rest = rest[n:]
			return b
		}
		for gi := range st.wGroups {
			g := &st.wGroups[gi]
			g.buf = carve(len(g.arr.Data) + g.sched.NGhost())
		}

		l.insp = st
		l.s.Reg.Record(&l.rec, data, ind)
	})
}

// referencePartitionIterations is Loop.PartitionIterations as it was
// when it dereferenced once per access, kept verbatim as the oracle's
// Phase B.
func (l *Loop) referencePartitionIterations(policy iterpart.Policy) {
	s := l.s
	s.timed(TimerRemap, func() {
		c := s.C
		nAcc := len(l.Reads) + len(l.Writes)
		ownersByAcc := make([][]int, 0, nAcc)
		for _, r := range l.Reads {
			o, _ := r.Arr.res.ResolveInto(c, new(ttable.Workspace), r.Ind.Data)
			ownersByAcc = append(ownersByAcc, o)
		}
		for _, w := range l.Writes {
			o, _ := w.Arr.res.ResolveInto(c, new(ttable.Workspace), w.Ind.Data)
			ownersByAcc = append(ownersByAcc, o)
		}
		nLocal := len(l.iterGl)
		refOwners := make([][]int, nLocal)
		lhsOwner := make([]int, nLocal)
		blockHome := make([]int, nLocal)
		flat := make([]int, nLocal*nAcc) // backs every row of refOwners
		for i := 0; i < nLocal; i++ {
			row := flat[i*nAcc : (i+1)*nAcc : (i+1)*nAcc]
			for a, o := range ownersByAcc {
				row[a] = o[i]
			}
			refOwners[i] = row
			if len(l.Writes) > 0 {
				lhsOwner[i] = ownersByAcc[len(l.Reads)][i]
			} else if nAcc > 0 {
				lhsOwner[i] = ownersByAcc[0][i]
			}
			blockHome[i] = c.Rank()
		}
		dest := make([]int, nLocal)
		for i := range dest {
			dest[i] = iterpart.Choose(refOwners[i], lhsOwner[i], blockHome[i], policy)
		}
		c.Words(nLocal * (nAcc + 2))

		pl := remap.Build(c, l.iterGl, dest)
		newGl := append([]int(nil), pl.NewGlobals()...)
		tab := ttable.Build(c, l.NIter, newGl)

		// Remap each distinct indirection array exactly once.
		moved := map[*IntArray]bool{}
		var inds []*IntArray
		for _, r := range l.Reads {
			inds = append(inds, r.Ind)
		}
		for _, w := range l.Writes {
			inds = append(inds, w.Ind)
		}
		for _, ind := range inds {
			if moved[ind] {
				continue
			}
			moved[ind] = true
			ind.Data = pl.MoveInts(c, ind.Data)
			ind.gl = newGl
			ind.res = tab
			ind.dad = s.DADs.New(dist.Irregular, ind.n)
			s.Reg.NoteRemap(ind.dad)
		}
		l.iterGl = newGl
	})
}

// inspTrace is what one rank saw over a run of the inspector
// differential program. Snapshots are compared exactly; at a sync point
// — after an inspection or an iteration repartition, the two places
// where the inspector under test may charge less than the per-access
// one — the rank under test must not be ahead of the reference clock,
// is advanced to it, and records by how much, so that every clock after
// it (the executor's above all) can again be compared to the last bit.
type inspTrace struct {
	floats [][][]float64 // per step: arrays, ghost and accumulation buffers
	ints   [][][]int     // per step: iterations, ghost counts, reference vectors
	clocks []float64
	syncs  []float64 // the reference clock at each sync point
	saved  []float64 // under test: reference clock - own clock there
}

// sync is a sync point; want is the reference run's trace of this rank,
// nil on the reference side. It reports false when the rank under test
// was ahead of the reference or could not be put level with it.
func (tr *inspTrace) sync(c *machine.Ctx, want *inspTrace) bool {
	if want == nil {
		tr.syncs = append(tr.syncs, c.Clock())
		return true
	}
	ref := want.syncs[len(tr.saved)]
	d := ref - c.Clock()
	tr.saved = append(tr.saved, d)
	c.AdvanceClock(d)
	return d >= 0 && c.Clock() == ref
}

func (tr *inspTrace) snapshot(c *machine.Ctx, l *Loop, arrays []*Array) {
	var fs [][]float64
	for _, a := range arrays {
		fs = append(fs, slices.Clone(a.Data))
	}
	for _, g := range l.insp.rGroups {
		fs = append(fs, slices.Clone(g.ghosts()))
	}
	for _, g := range l.insp.wGroups {
		fs = append(fs, g.packed())
	}
	is := [][]int{slices.Clone(l.iterGl)}
	var ghosts []int // per access, even where accesses share a schedule
	for _, g := range l.insp.rGroups {
		is, ghosts = append(is, unshifted(g.ref, g.n, g.off)), append(ghosts, g.sched.NGhost())
	}
	for _, g := range l.insp.wGroups {
		is, ghosts = append(is, unshifted(g.ref, len(g.arr.Data), g.off)), append(ghosts, g.sched.NGhost())
	}
	is = append(is, ghosts)
	tr.floats, tr.ints, tr.clocks = append(tr.floats, fs), append(tr.ints, is), append(tr.clocks, c.Clock())
}

// diff names the first difference between two traces, or "".
func (tr *inspTrace) diff(want *inspTrace) string {
	if len(tr.clocks) != len(want.clocks) || len(tr.saved) != len(want.syncs) {
		return fmt.Sprintf("%d steps and %d sync points traced, reference %d and %d",
			len(tr.clocks), len(tr.saved), len(want.clocks), len(want.syncs))
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range want.clocks {
		if len(tr.floats[i]) != len(want.floats[i]) || len(tr.ints[i]) != len(want.ints[i]) {
			return fmt.Sprintf("step %d: %d+%d buffers, reference %d+%d", i,
				len(tr.floats[i]), len(tr.ints[i]), len(want.floats[i]), len(want.ints[i]))
		}
		for b := range want.floats[i] {
			if !slices.EqualFunc(tr.floats[i][b], want.floats[i][b], sameBits) {
				return fmt.Sprintf("step %d float buffer %d: %v, reference %v", i, b, tr.floats[i][b], want.floats[i][b])
			}
		}
		for b := range want.ints[i] {
			if !slices.Equal(tr.ints[i][b], want.ints[i][b]) {
				return fmt.Sprintf("step %d int vector %d: %v, reference %v", i, b, tr.ints[i][b], want.ints[i][b])
			}
		}
		if tr.clocks[i] != want.clocks[i] {
			return fmt.Sprintf("step %d: clock %v, reference %v", i, tr.clocks[i], want.clocks[i])
		}
	}
	return ""
}

// inspProg is one rank's view of an inspector differential program:
// the session and arrays every case starts from and the steps a case
// is written in. The reference side (want == nil) inspects and
// repartitions through the per-access oracles.
type inspProg struct {
	t    *testing.T
	c    *machine.Ctx
	s    *Session
	tr   *inspTrace
	want *inspTrace

	n          int
	x, y, z    *Array
	e1, e2, e3 *IntArray
	loop       *Loop
	// shares[i] says whether sync point i follows work that reaches
	// some access pattern more than once.
	shares []bool
}

func (p *inspProg) sync(shares bool) {
	p.shares = append(p.shares, shares)
	if !p.tr.sync(p.c, p.want) {
		p.t.Errorf("rank %d sync point %d: clock off the reference's by %v, cannot be put level",
			p.c.Rank(), len(p.shares)-1, p.tr.saved[len(p.shares)-1])
	}
}

// mapping redistributes arrays by g → (g + shift) mod P: for n a
// multiple of P every rank holds n/P elements whatever the shift.
func (p *inspProg) redistribute(shift int, arrays ...*Array) {
	m := p.s.NewIntArray("map", p.n)
	m.FillByGlobal(func(g int) int { return (g + shift) % p.c.Procs() })
	p.s.Redistribute(p.s.MappingFromIntArray(m), arrays, nil)
}

// declare makes rd/wr the loop under test.
func (p *inspProg) declare(rd []Read, wr []Write) {
	kernel := func(iter int, in, out []float64) {
		acc := float64(iter%7) - 3
		for j, v := range in {
			acc += float64(j+1) * v
		}
		for k := range out {
			out[k] = acc * float64(k+2)
		}
	}
	p.loop = p.s.NewLoop("pattern", p.e1.n, rd, wr, 5, perIter(kernel))
}

// step is one Execute (or ExecuteNoReuse). inspects says whether the
// step must run the inspector — the reuse decision is part of what is
// checked — and shares whether that inspection revisits a pattern. A
// reusing step goes through Execute as it is; an inspecting one is
// Execute's three statements with a sync point between the inspection
// and the executor.
func (p *inspProg) step(noReuse, inspects, shares bool) {
	l := p.loop
	if !inspects {
		_, before := p.s.Reg.Stats()
		l.Execute()
		if _, misses := p.s.Reg.Stats(); misses != before {
			p.t.Errorf("rank %d step %d: inspected, reuse expected", p.c.Rank(), len(p.tr.clocks))
		}
	} else {
		if !noReuse {
			p.c.Words(2 * (len(l.Reads) + len(l.Writes)))
			data, ind := l.dads()
			if p.s.Reg.Check(&l.rec, data, ind) && l.insp != nil {
				p.t.Errorf("rank %d step %d: reuse check passed, inspection expected", p.c.Rank(), len(p.tr.clocks))
			}
		}
		if p.want == nil {
			l.referenceInspect()
		} else {
			l.Inspect()
		}
		p.sync(shares)
		p.s.timed(TimerExecutor, l.executor)
	}
	p.tr.snapshot(p.c, l, []*Array{p.x, p.y, p.z})
}

func (p *inspProg) partitionIterations(shares bool) {
	if p.want == nil {
		p.loop.referencePartitionIterations(iterpart.AlmostOwnerComputes)
	} else {
		p.loop.PartitionIterations(iterpart.AlmostOwnerComputes)
	}
	p.sync(shares)
}

// inspectorCases are the programs of TestInspectorMatchesReference.
// Every one ends with two forced re-inspections, which recycle the
// reference vectors of the state they replace.
var inspectorCases = []struct {
	name string
	run  func(p *inspProg)
}{
	{"euler", eulerPatternCase},
	{"reads only", func(p *inspProg) {
		p.redistribute(1, p.x, p.y, p.z)
		p.declare([]Read{{p.x, p.e1}, {p.y, p.e2}, {p.z, p.e1}}, nil)
		p.step(false, true, true)
		p.step(false, false, false)
	}},
	{"writes only", func(p *inspProg) {
		p.redistribute(1, p.x, p.y, p.z)
		p.declare(nil, []Write{{p.x, p.e1, Add}, {p.y, p.e2, Max}, {p.z, p.e1, Add}})
		p.step(false, true, true)
		p.step(false, false, false)
	}},
	// One pattern behind a read and three writes of three operators.
	{"other op on a shared pattern", func(p *inspProg) {
		p.redistribute(2, p.x, p.y)
		p.declare([]Read{{p.x, p.e1}}, []Write{{p.y, p.e1, Add}, {p.y, p.e1, Max}, {p.y, p.e1, Min}})
		p.step(false, true, true)
		p.step(false, false, false)
	}},
	// Equal local sizes, different placements: only the resolver tells.
	{"separate Redistribute calls", func(p *inspProg) {
		p.redistribute(1, p.x)
		p.redistribute(2, p.y)
		p.declare([]Read{{p.x, p.e1}, {p.x, p.e2}}, []Write{{p.y, p.e1, Add}, {p.y, p.e2, Add}})
		p.step(false, true, false)
		p.step(false, false, false)
	}},
	{"separate Redistribute calls, same mapping", func(p *inspProg) {
		p.redistribute(1, p.x)
		p.redistribute(1, p.y)
		p.declare([]Read{{p.x, p.e1}, {p.x, p.e2}}, []Write{{p.y, p.e1, Add}, {p.y, p.e2, Add}})
		p.step(false, true, false)
	}},
	{"BLOCK arrays", func(p *inspProg) {
		p.declare([]Read{{p.x, p.e1}, {p.x, p.e2}}, []Write{{p.y, p.e1, Add}, {p.y, p.e2, Add}})
		p.step(false, true, true)
		p.step(false, false, false)
		p.partitionIterations(true)
		p.step(false, true, true)
	}},
	// Same resolver, another local size (grown behind the runtime's
	// back, on every rank alike): ghost slots start elsewhere.
	{"BLOCK arrays, local sizes differ", func(p *inspProg) {
		p.y.Data = append(p.y.Data, 0)
		p.declare([]Read{{p.x, p.e1}}, []Write{{p.y, p.e1, Add}})
		p.step(false, true, false)
		p.step(false, false, false)
	}},
}

// eulerPatternCase is the paper's loop — x and y aligned, both reached
// through end_pt1 and end_pt2 — taken through everything Section 3
// lets happen between two executions.
func eulerPatternCase(p *inspProg) {
	p.redistribute(1, p.x, p.y)
	p.declare([]Read{{p.x, p.e1}, {p.x, p.e2}}, []Write{{p.y, p.e1, Add}, {p.y, p.e2, Add}})
	p.step(false, true, true)
	p.step(false, false, false)
	p.x.FillByGlobal(func(g int) float64 { return float64(mix(g, 7)%100) / 8 })
	p.step(false, false, false) // a data write leaves schedules valid
	p.partitionIterations(true)
	p.step(false, true, true)
	p.e2.FillByGlobal(func(g int) int { return mix(g, 8) % p.n }) // condition 3
	p.step(false, true, true)
	p.redistribute(2, p.y) // condition 1, for y alone: nothing is shared any more
	p.step(false, true, false)
	p.step(false, false, false)
	p.partitionIterations(false)
	p.step(false, true, false)
	p.redistribute(2, p.x)      // same placement as y, which lets Redistribute take both ...
	p.redistribute(3, p.x, p.y) // ... and align them again
	p.step(false, true, true)
}

// TestInspectorMatchesReference runs each of inspectorCases over the
// pattern-sharing inspector and over the per-access one and demands,
// after every step, bit-identical arrays, ghost and accumulation
// buffers, per-access reference vectors, iteration placements, ghost
// counts and — the rank under test
// having been advanced to the reference clock after each inspection
// and repartition — per-rank clocks, so the executor is shown to send
// the same messages and bytes at the same cost. The inspector itself
// must cost exactly the reference's when no pattern repeats and never
// more; on the iPSC/860 it must cost less, summed over ranks, wherever
// one does. The calibrated machine and the three counting machines.
func TestInspectorMatchesReference(t *testing.T) {
	for _, sh := range []struct{ p, n, nIter int }{{1, 12, 40}, {3, 48, 773}, {8, 16, 100}} {
		for _, tc := range inspectorCases {
			for name, cfg := range clockConfigs(sh.p) {
				label := fmt.Sprintf("%s: %s P=%d N=%d iters=%d", tc.name, name, sh.p, sh.n, sh.nIter)
				var shares []bool
				run := func(want []inspTrace) []inspTrace {
					traces := make([]inspTrace, sh.p)
					err := machine.Run(cfg, func(c *machine.Ctx) {
						p := newInspProg(t, c, &traces[c.Rank()], sh.n, sh.nIter)
						if want != nil {
							p.want = &want[c.Rank()]
						}
						tc.run(p)
						p.step(true, true, p.shares[len(p.shares)-1])
						p.step(true, true, p.shares[len(p.shares)-1])
						if c.Rank() == 0 {
							shares = p.shares
						}
					})
					if err != nil {
						t.Fatalf("%s reference=%v: %v", label, want == nil, err)
					}
					return traces
				}
				want := run(nil)
				got := run(want)
				for r := range want {
					if d := got[r].diff(&want[r]); d != "" {
						t.Errorf("%s rank %d: %s", label, r, d)
					}
				}
				for i, sharing := range shares {
					total := 0.0
					for r := range got {
						total += got[r].saved[i]
						if !sharing && got[r].saved[i] != 0 {
							t.Errorf("%s rank %d sync point %d: no pattern repeats, yet the clock is %v off the reference's",
								label, r, i, got[r].saved[i])
						}
					}
					if sharing && name == "ipsc860" && total <= 0 {
						t.Errorf("%s sync point %d: a pattern repeats, yet the inspector saved %v", label, i, total)
					}
				}
			}
		}
	}
}
