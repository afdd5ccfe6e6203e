package core

import (
	"fmt"
	"math"
	"slices"

	"chaos/internal/dist"
	"chaos/internal/iterpart"
	"chaos/internal/kernel"
	"chaos/internal/registry"
	"chaos/internal/remap"
	"chaos/internal/schedule"
	"chaos/internal/scratch"
	"chaos/internal/ttable"
)

// DefaultIterPolicy is the runtime's default iteration-placement
// convention: "our current default is to employ a scheme that places a
// loop iteration on the processor that is the home of the largest
// number of the iteration's distributed array references."
const DefaultIterPolicy = iterpart.AlmostOwnerComputes

// Reduce names the reduction applied by a write access. The paper
// allows "left hand side reductions (e.g. addition, accumulation, max,
// min, etc)" as the only loop-carried dependencies; Assign covers
// dependence-free single-assignment loops such as Figure 1's L1.
type Reduce int

const (
	// Assign overwrites the target element. The loop must assign each
	// target at most once (no loop-carried dependence), per the
	// paper's model; NaN cannot be assigned (it is the internal
	// "untouched" sentinel).
	Assign Reduce = iota
	// Add accumulates contributions (REDUCE(ADD, ...)).
	Add
	// Max keeps the maximum contribution.
	Max
	// Min keeps the minimum contribution.
	Min
	// Mul multiplies contributions.
	Mul
)

func (r Reduce) String() string {
	switch r {
	case Assign:
		return "ASSIGN"
	case Add:
		return "ADD"
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	case Mul:
		return "MUL"
	default:
		return fmt.Sprintf("Reduce(%d)", int(r))
	}
}

func (r Reduce) identity() float64 {
	switch r {
	case Add:
		return 0
	case Max:
		return math.Inf(-1)
	case Min:
		return math.Inf(1)
	case Mul:
		return 1
	default:
		return math.NaN()
	}
}

func (r Reduce) combine(owned, contrib float64) float64 {
	switch r {
	case Add:
		return owned + contrib
	case Max:
		if contrib > owned {
			return contrib
		}
		return owned
	case Min:
		if contrib < owned {
			return contrib
		}
		return owned
	case Mul:
		return owned * contrib
	default: // Assign: NaN contributions mark untouched slots
		if math.IsNaN(contrib) {
			return owned
		}
		return contrib
	}
}

// Read is one gathered right-hand-side access of the form Arr(Ind(i)).
type Read struct {
	Arr *Array
	Ind *IntArray
}

// Write is one left-hand-side access of the form Arr(Ind(i)) combined
// with Op.
type Write struct {
	Arr *Array
	Ind *IntArray
	Op  Reduce
}

// Kernel is a loop body, called once per executor step on the step's
// locally owned iterations: for each of them, in order, it gathers the
// operands, computes the body and combines the contributions, all in
// one loop (see Strip).
type Kernel interface {
	Strip(s *Strip)
}

// Strip is what one kernel call receives; see kernel.Strip.
type Strip = kernel.Strip

// Source is one read access of a kernel call; see kernel.Source.
type Source = kernel.Source

// Target is one write access of a kernel call; see kernel.Target.
type Target = kernel.Target

// KernelFunc adapts an ordinary function to a Kernel.
type KernelFunc func(s *Strip)

// Strip calls f(s).
func (f KernelFunc) Strip(s *Strip) { f(s) }

// Loop is an irregular forall loop: per iteration i, Kernel reads
// operand j from Reads[j].Arr(Reads[j].Ind(i)) and combines
// contribution k into Writes[k].Arr(Writes[k].Ind(i)) with
// Writes[k].Op. Indirection arrays are indexed directly by the loop
// index (single-level indirection), matching the paper's loop model.
type Loop struct {
	Name  string
	NIter int
	Reads []Read
	// Writes lists the reduction targets.
	Writes []Write
	// Kernel runs the loop body, called once per step on the step's
	// locally owned iterations.
	Kernel Kernel
	// FlopsPerIter is the modeled floating-point cost of the loop body
	// per iteration, charged to the virtual clock.
	FlopsPerIter int

	s      *Session
	iterGl []int // global iteration ids owned locally

	rec  registry.LoopRecord
	insp *inspectorState
	// ws is the inspector's workspace, held only between back-to-back
	// inspections (see Inspect).
	ws *schedule.Builder

	// What every reused step needs and the loop therefore keeps across
	// steps and across inspections, grow-only: the accumulation buffers
	// (one slab, carved up by Inspect; the ghosts of the reads live in
	// the read arrays' own tails), the two descriptor lists of the reuse
	// check and the kernel's argument (one Source per read and one Target
	// per write, re-pointed at every step).
	store             []float64
	dataDADs, indDADs []dist.DAD
	strip             Strip
}

// gatherGroup is one read access's communication schedule and its
// per-iteration reference vector into the array's storage: n local
// elements, then the ghost tail, whose elements off through
// off+NGhost-1 this access's gather fills.
type gatherGroup struct {
	arr    *Array
	sched  *schedule.Schedule
	ref    []int
	n, off int
}

// scatterGroup is one write access's schedule, its reference vector,
// and its accumulation buffer: the array's local section, off slots the
// access does not use (its pattern's ghosts sit off behind the local
// section), then the schedule's ghost slots.
type scatterGroup struct {
	arr     *Array
	op      Reduce
	combine func(owned, contrib float64) float64 // op.combine, bound once
	sched   *schedule.Schedule
	buf     []float64
	ref     []int
	off     int
}

// inspectorState is what an inspection compiles the loop into: per
// access a schedule, a reference vector and a buffer. The executor only
// indexes it.
type inspectorState struct {
	rGroups []gatherGroup  // one per read access
	wGroups []scatterGroup // one per write access
	// pats lists the distinct access patterns in build order and refs
	// the reference vector of each — groups with the same pattern hold
	// the same one. The next inspection builds its i-th pattern into
	// pats[i].sched and refs[i].
	pats []pattern
	refs [][]int
}

// pattern is what a schedule and its reference vector depend on (the
// paper's Section 3): the data array's distribution, its local size,
// and the indirection array it is reached through — never which
// array's values travel. Inspect builds each distinct pattern once;
// inspectorState.pats[i] owns inspectorState.refs[i]. The pattern's
// ghosts sit off elements behind the local section: a read pattern's
// off is the sum of NGhost over the read patterns built before it, so
// that the reads of one array gather into disjoint stretches of its
// tail; a pattern first built for a write has off 0.
type pattern struct {
	res   ttable.Resolver
	size  int
	ind   *IntArray
	sched *schedule.Schedule
	off   int
}

// sameDistribution reports whether two resolvers place an index space
// identically: the same translation table, or Regular over equal BLOCK
// distributions. Any other resolver compares unequal; == only ever
// meets a comparable dynamic type on the left, so it cannot panic.
func sameDistribution(a, b ttable.Resolver) bool {
	switch a.(type) {
	case *ttable.Table, ttable.Regular:
		return a == b
	}
	return false
}

// NewLoop declares an irregular loop over nIter iterations with the
// default BLOCK iteration distribution. Indirection arrays of every
// access must be aligned with the iteration space.
func (s *Session) NewLoop(name string, nIter int, reads []Read, writes []Write, flopsPerIter int, kernel Kernel) *Loop {
	l := &Loop{
		Name:         name,
		NIter:        nIter,
		Reads:        reads,
		Writes:       writes,
		Kernel:       kernel,
		FlopsPerIter: flopsPerIter,
		s:            s,
	}
	b := dist.NewBlock(nIter, s.C.Procs())
	l.iterGl = blockGlobals(b, s.C.Rank())
	l.checkAlignment()
	return l
}

func (l *Loop) checkAlignment() {
	for _, r := range l.Reads {
		if len(r.Ind.Data) != len(l.iterGl) {
			panic(fmt.Sprintf("core: loop %q: indirection %q not aligned with iteration space (%d vs %d)",
				l.Name, r.Ind.Name, len(r.Ind.Data), len(l.iterGl)))
		}
	}
	for _, w := range l.Writes {
		if len(w.Ind.Data) != len(l.iterGl) {
			panic(fmt.Sprintf("core: loop %q: indirection %q not aligned with iteration space (%d vs %d)",
				l.Name, w.Ind.Name, len(w.Ind.Data), len(l.iterGl)))
		}
	}
}

// dads re-reads the descriptors of the loop's data and indirection
// arrays (Redistribute and PartitionIterations replace them) into the
// loop's two scratch lists.
func (l *Loop) dads() (data, ind []dist.DAD) {
	data, ind = l.dataDADs[:0], l.indDADs[:0]
	for _, r := range l.Reads {
		data, ind = append(data, r.Arr.DAD()), append(ind, r.Ind.DAD())
	}
	for _, w := range l.Writes {
		data, ind = append(data, w.Arr.DAD()), append(ind, w.Ind.DAD())
	}
	l.dataDADs, l.indDADs = data, ind
	return data, ind
}

// Inspect runs the Phase D inspector unconditionally: it builds one
// communication schedule and buffer-association vector per distinct
// access pattern — read and write accesses that reach the same
// distribution through the same indirection array share them, each
// with a buffer and a communication phase of its own — then records
// every access's DADs and indirection timestamps with the registry.
// Collective.
//
// Each read array's storage is given a ghost tail for the reads' gathers
// (DistArray.reserve), which moves its Data when the tail must grow.
//
// A re-inspection rebuilds in place: the previous inspector state's
// lists are refilled, and each build takes the schedule and reference
// vector of the same build position last time as its storage
// (schedule.Builder.BuildGather). The pattern sharing itself is
// recomputed every time; only its storage is reused. The saved record is
// invalidated first, so an inspection that does not complete leaves
// nothing the reuse check would accept.
//
// All the schedule builds share one schedule.Builder. A first
// inspection drops it on return; one that replaced an inspector state
// keeps it (Loop.ws) for the next, until Execute finds the schedules
// reusable: a loop under schedule reuse retains no inspector scratch,
// only the buffers every executor step needs (Loop.store), and a loop
// that re-inspects step after step stops allocating.
func (l *Loop) Inspect() {
	l.s.timed(TimerInspector, func() {
		l.rec.Invalidate()
		data, ind := l.dads()
		st, b := l.insp, l.ws
		if b == nil {
			b = &schedule.Builder{}
		}
		if st != nil {
			l.ws = b // this loop re-inspects: keep the scratch for the next time
		} else {
			st = &inspectorState{}
		}
		oldPats, oldRefs := st.pats, st.refs
		st.pats, st.refs = st.pats[:0], st.refs[:0]

		// build returns the schedule, reference vector and ghost offset
		// of an access that reaches arr through ind: those of an earlier
		// access with the same pattern, or else newly inspected with its
		// ghosts off elements behind the local section.
		build := func(arr *Array, ind *IntArray, off int) (*schedule.Schedule, []int, int) {
			pat := pattern{res: arr.res, size: len(arr.Data), ind: ind, off: off}
			pi := slices.IndexFunc(st.pats, func(q pattern) bool {
				return q.size == pat.size && sameDistribution(q.res, pat.res) && q.ind == ind
			})
			if pi < 0 {
				var old *schedule.Schedule
				var recycled []int
				if pi = len(st.pats); pi < len(oldPats) {
					old, recycled = oldPats[pi].sched, oldRefs[pi]
				}
				var ref []int
				pat.sched, ref = b.BuildGather(l.s.C, arr.res, pat.size, ind.Data, schedule.Options{GhostOffset: pat.off}, old, recycled)
				st.pats, st.refs = append(st.pats, pat), append(st.refs, ref)
			}
			return st.pats[pi].sched, st.refs[pi], st.pats[pi].off
		}

		// Read patterns take their ghost offsets in build order (see
		// pattern); tail is where the next one's ghosts begin.
		st.rGroups = scratch.Grow(&st.rGroups, len(l.Reads))
		tail := 0
		for j, r := range l.Reads {
			g := &st.rGroups[j]
			g.arr, g.n = r.Arr, len(r.Arr.Data)
			g.sched, g.ref, g.off = build(r.Arr, r.Ind, tail)
			tail = max(tail, g.off+g.sched.NGhost())
		}
		st.wGroups = scratch.Grow(&st.wGroups, len(l.Writes))
		for k, w := range l.Writes {
			g := &st.wGroups[k]
			if g.combine == nil || g.op != w.Op {
				g.combine = w.Op.combine // binding allocates: once per operator
			}
			g.arr, g.op = w.Arr, w.Op
			g.sched, g.ref, g.off = build(w.Arr, w.Ind, 0)
		}
		// Fewer patterns than last time: let the surplus go.
		if n := len(st.pats); n < len(oldPats) {
			clear(oldPats[n:])
			clear(oldRefs[n:])
		}

		// Give each read array the tail its reads gather into.
		for _, g := range st.rGroups {
			need := 0
			for _, h := range st.rGroups {
				if h.arr == g.arr {
					need = max(need, h.off+h.sched.NGhost())
				}
			}
			g.arr.reserve(need)
		}

		// Carve the accumulation buffers out of the loop's slab.
		total := 0
		for _, g := range st.wGroups {
			total += len(g.arr.Data) + g.off + g.sched.NGhost()
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
			g.buf = carve(len(g.arr.Data) + g.off + g.sched.NGhost())
		}

		l.insp = st
		l.s.Reg.Record(&l.rec, data, ind)
	})
}

// Execute runs one executor iteration of the loop, re-running the
// inspector only when the registry's conservative check fails (the
// paper's schedule-reuse mechanism). Collective.
func (l *Loop) Execute() {
	// The reuse check itself is charged: a few descriptor comparisons.
	l.s.C.Words(2 * (len(l.Reads) + len(l.Writes)))
	data, ind := l.dads()
	if l.s.Reg.Check(&l.rec, data, ind) && l.insp != nil {
		l.ws = nil // under reuse the loop holds no inspector scratch
	} else {
		l.Inspect()
	}
	l.s.timed(TimerExecutor, l.executor)
}

// ExecuteNoReuse forces a fresh inspector before every executor pass —
// the paper's "no schedule reuse" baseline (Table 1).
func (l *Loop) ExecuteNoReuse() {
	l.Inspect()
	l.s.timed(TimerExecutor, l.executor)
}

// executor is Phase E, run over what the inspector compiled: gather
// ghost values into the read arrays' tails, then call the kernel once
// on all local iterations, which gathers, computes and combines into
// the accumulation buffers iteration by iteration; finally fold the
// local contributions and scatter the off-processor ones back to their
// owners. Each accumulation buffer receives its contributions in
// iteration order.
//
//chaos:hotpath
func (l *Loop) executor() {
	c := l.s.C
	st := l.insp
	n := len(l.iterGl)
	sp := &l.strip
	sp.Reads = scratch.Grow(&sp.Reads, len(st.rGroups))
	sp.Writes = scratch.Grow(&sp.Writes, len(st.wGroups))

	// Gather read operands: one communication phase per access. Every
	// Ref has len == cap, so a kernel that appends to a slice of its
	// argument reallocates instead of writing past it.
	for j := range st.rGroups {
		g := &st.rGroups[j]
		ghost := g.n + g.off
		vals, ok := g.arr.storage(g.n, ghost+g.sched.NGhost())
		if !ok {
			panicStaleOperands(l, g)
		}
		g.sched.Gather(c, g.arr.Data, vals[ghost:])
		sp.Reads[j] = Source{Vals: vals, Ref: g.ref[:n:n]}
	}

	// Reset the write accumulation buffers to the reduction identity.
	for k := range st.wGroups {
		g := &st.wGroups[k]
		if len(g.buf) != len(g.arr.Data)+g.off+g.sched.NGhost() {
			panicStaleBuffer(l, g)
		}
		id := g.op.identity()
		for i := range g.buf {
			g.buf[i] = id
		}
		sp.Writes[k] = Target{Buf: g.buf, Ref: g.ref[:n:n], Add: g.op == Add, Op: g.combine}
	}

	if n > 0 {
		sp.Iters = l.iterGl[:n:n]
		l.Kernel.Strip(sp)
	}
	nR, nW := len(l.Reads), len(l.Writes)
	c.Flops(len(l.iterGl) * (l.FlopsPerIter + nW))
	c.Words(len(l.iterGl) * (nR + nW))

	// Fold local contributions and scatter ghost contributions, one
	// communication phase per access.
	for gi := range st.wGroups {
		g := &st.wGroups[gi]
		data := g.arr.Data
		foldInto(g.op, data, g.buf[:len(data)])
		c.Flops(len(data))
		g.sched.ScatterOp(c, data, g.buf[len(data)+g.off:], g.combine)
	}

	// One modification event per written array for this loop body.
	for _, w := range l.Writes {
		w.Arr.NoteWrite()
	}
}

// foldInto combines src into dst element by element.
func foldInto(op Reduce, dst, src []float64) {
	if op == Add {
		for i, v := range src {
			dst[i] += v
		}
		return
	}
	for i, v := range src {
		dst[i] = op.combine(dst[i], v)
	}
}

func panicStaleBuffer(l *Loop, g *scatterGroup) {
	panic(fmt.Sprintf("core: loop %q: accumulation buffer of %q holds %d elements, array and schedule need %d",
		l.Name, g.arr.Name, len(g.buf), len(g.arr.Data)+g.off+g.sched.NGhost()))
}

func panicStaleOperands(l *Loop, g *gatherGroup) {
	panic(fmt.Sprintf("core: loop %q: %q was resized or replaced through Data since the inspection (local section of %d elements, inspected with %d)",
		l.Name, g.arr.Name, len(g.arr.Data), g.n))
}

// PartitionIterations runs the paper's Phase B on this loop: every
// local iteration is assigned to a processor according to policy
// (default almost-owner-computes), and the loop's iteration space and
// indirection arrays are remapped accordingly. The remap gives the
// indirection arrays fresh DADs, so any saved inspector is invalidated
// through the normal reuse conditions. The cost is attributed to
// TimerRemap. Collective.
func (l *Loop) PartitionIterations(policy iterpart.Policy) {
	s := l.s
	s.timed(TimerRemap, func() {
		c := s.C
		type access struct {
			arr *Array
			ind *IntArray
		}
		nAcc := len(l.Reads) + len(l.Writes)
		accs := make([]access, 0, nAcc)
		for _, r := range l.Reads {
			accs = append(accs, access{r.Arr, r.Ind})
		}
		for _, w := range l.Writes {
			accs = append(accs, access{w.Arr, w.Ind})
		}
		// Dereference each distinct (distribution, indirection array)
		// pair once, all through one workspace; accesses that repeat one
		// share its owner list, copied out of the workspace.
		var ws ttable.Workspace
		ownersByAcc := make([][]int, nAcc)
		for a, ac := range accs {
			b := slices.IndexFunc(accs[:a], func(q access) bool {
				return q.ind == ac.ind && sameDistribution(q.arr.res, ac.arr.res)
			})
			if b >= 0 {
				ownersByAcc[a] = ownersByAcc[b]
			} else {
				owners, _ := ac.arr.res.ResolveInto(c, &ws, ac.ind.Data)
				ownersByAcc[a] = slices.Clone(owners)
			}
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
		dest := iterpart.ChooseAll(refOwners, lhsOwner, blockHome, policy)
		c.Words(nLocal * (nAcc + 2))

		pl := remap.Build(c, l.iterGl, dest)
		newGl := append([]int(nil), pl.NewGlobals()...)
		tab := ttable.Build(c, l.NIter, newGl)

		// Remap each distinct indirection array once, in access order.
		var inds []*IntArray
		for _, ac := range accs {
			if !slices.Contains(inds, ac.ind) {
				inds = append(inds, ac.ind)
			}
		}
		moveArrays(s, inds, pl, (*remap.Plan).MoveInts, newGl, tab)
		l.iterGl = newGl
	})
}
