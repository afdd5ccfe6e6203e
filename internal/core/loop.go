package core

import (
	"fmt"
	"math"

	"chaos/internal/dist"
	"chaos/internal/iterpart"
	"chaos/internal/registry"
	"chaos/internal/remap"
	"chaos/internal/schedule"
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

// Loop is an irregular forall loop: per iteration i, values
// Reads[j].Arr(Reads[j].Ind(i)) are gathered into in[j], Kernel
// computes contributions out[k], and each out[k] is combined into
// Writes[k].Arr(Writes[k].Ind(i)) with Writes[k].Op. Indirection
// arrays are indexed directly by the loop index (single-level
// indirection), matching the paper's loop model.
type Loop struct {
	Name  string
	NIter int
	Reads []Read
	// Writes lists the reduction targets.
	Writes []Write
	// Kernel computes one iteration. iter is the global iteration
	// number; in has one gathered value per read; out must be filled
	// with one contribution per write. in and out are reused across
	// iterations.
	Kernel func(iter int, in, out []float64)
	// FlopsPerIter is the modeled floating-point cost of one Kernel
	// call, charged to the virtual clock.
	FlopsPerIter int

	// MergeAccesses, when set before the first inspection, fuses all
	// accesses to the same array (and, for writes, the same reduction
	// operator) into a single communication schedule, so the executor
	// issues one gather per array and one scatter per (array, op)
	// instead of one per access — the CHAOS schedule-fusion
	// optimization. Results are identical; per-iteration message
	// counts drop.
	MergeAccesses bool

	s       *Session
	iterGl  []int // global iteration ids owned locally
	iterRes ttable.Resolver

	rec  registry.LoopRecord
	insp *inspectorState
}

// gatherGroup is one fused communication schedule serving one or more
// read accesses of the same array.
type gatherGroup struct {
	arr   *Array
	sched *schedule.Schedule
}

// scatterGroup is one fused schedule serving write accesses that share
// an array and a reduction operator.
type scatterGroup struct {
	arr   *Array
	op    Reduce
	sched *schedule.Schedule
}

// accessPlan ties one access to its group and its per-iteration
// reference vector into [local | group ghosts].
type accessPlan struct {
	group int
	ref   []int
}

type inspectorState struct {
	rGroups []gatherGroup
	rPlans  []accessPlan
	wGroups []scatterGroup
	wPlans  []accessPlan
	// refs holds every group's whole reference vector (read groups,
	// then write groups) — the plans slice them — so the next
	// inspection can recycle the storage.
	refs [][]int
}

// NewLoop declares an irregular loop over nIter iterations with the
// default BLOCK iteration distribution. Indirection arrays of every
// access must be aligned with the iteration space.
func (s *Session) NewLoop(name string, nIter int, reads []Read, writes []Write, flopsPerIter int, kernel func(iter int, in, out []float64)) *Loop {
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
	l.iterRes = ttable.Regular{D: b}
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

// MyIterations returns the global iteration ids executed locally (do
// not mutate).
func (l *Loop) MyIterations() []int { return l.iterGl }

// GhostCounts returns the ghost-buffer sizes of the saved inspector's
// schedules, one per gather group then one per scatter group, or nil
// before the first inspection. Useful for diagnostics and
// communication-volume studies.
func (l *Loop) GhostCounts() []int {
	if l.insp == nil {
		return nil
	}
	var out []int
	for _, g := range l.insp.rGroups {
		out = append(out, g.sched.NGhost())
	}
	for _, g := range l.insp.wGroups {
		out = append(out, g.sched.NGhost())
	}
	return out
}

// CommPhases returns the number of communication phases one executor
// iteration performs (gathers + scatters). With MergeAccesses this is
// the number of distinct arrays rather than the number of accesses.
func (l *Loop) CommPhases() int {
	if l.insp == nil {
		return 0
	}
	return len(l.insp.rGroups) + len(l.insp.wGroups)
}

func (l *Loop) dataDADs() []dist.DAD {
	var ds []dist.DAD
	for _, r := range l.Reads {
		ds = append(ds, r.Arr.DAD())
	}
	for _, w := range l.Writes {
		ds = append(ds, w.Arr.DAD())
	}
	return ds
}

func (l *Loop) indDADs() []dist.DAD {
	var ds []dist.DAD
	for _, r := range l.Reads {
		ds = append(ds, r.Ind.DAD())
	}
	for _, w := range l.Writes {
		ds = append(ds, w.Ind.DAD())
	}
	return ds
}

// Inspect runs the Phase D inspector unconditionally: it builds one
// communication schedule per access and the buffer-association vectors,
// then records the loop's DADs and indirection timestamps with the
// registry. Collective.
//
// All its schedule builds share one schedule.Builder that lives for
// this call only, and the reference vectors of the inspector state
// being replaced become the storage of the new ones: a re-inspection
// allocates little beyond the schedules themselves, and the loop
// retains no scratch between inspections.
func (l *Loop) Inspect() {
	l.s.timed(TimerInspector, func() {
		// Register indirection descriptors with the (possibly
		// tracked) registry before recording timestamps.
		for _, d := range l.indDADs() {
			l.s.Reg.Track(d)
		}
		st := &inspectorState{}
		nLocal := len(l.iterGl)
		var b schedule.Builder
		var cat []int // a fused group's concatenated reference lists

		// build runs the inspector for group gi, whose member accesses
		// reach arr through the indirection arrays indOf names, and
		// gives each member's plan its stretch of the reference vector.
		build := func(gi int, arr *Array, members []int, indOf func(int) *IntArray, plans []accessPlan) *schedule.Schedule {
			globals := indOf(members[0]).Data
			if len(members) > 1 {
				cat = cat[:0]
				for _, j := range members {
					cat = append(cat, indOf(j).Data...)
				}
				globals = cat
			}
			var recycled []int
			if n := len(st.refs); l.insp != nil && n < len(l.insp.refs) {
				recycled = l.insp.refs[n]
			}
			sch, ref := b.BuildGather(l.s.C, arr.res, len(arr.Data), globals, schedule.Options{}, recycled)
			st.refs = append(st.refs, ref)
			for idx, j := range members {
				plans[j] = accessPlan{group: gi, ref: ref[idx*nLocal : (idx+1)*nLocal]}
			}
			return sch
		}

		// Group read accesses (per array when merging, else one group
		// per access), then build one schedule per group over the
		// concatenated reference lists and slice the reference vector
		// back per access.
		rGroupOf := map[*Array]int{}
		var rMembers [][]int
		for j, r := range l.Reads {
			gi := -1
			if l.MergeAccesses {
				if idx, ok := rGroupOf[r.Arr]; ok {
					gi = idx
				}
			}
			if gi < 0 {
				gi = len(st.rGroups)
				st.rGroups = append(st.rGroups, gatherGroup{arr: r.Arr})
				rMembers = append(rMembers, nil)
				if l.MergeAccesses {
					rGroupOf[r.Arr] = gi
				}
			}
			rMembers[gi] = append(rMembers[gi], j)
		}
		st.rPlans = make([]accessPlan, len(l.Reads))
		readInd := func(j int) *IntArray { return l.Reads[j].Ind }
		for gi := range st.rGroups {
			g := &st.rGroups[gi]
			g.sched = build(gi, g.arr, rMembers[gi], readInd, st.rPlans)
		}

		// Same for writes, grouped by (array, reduction operator).
		type wKey struct {
			arr *Array
			op  Reduce
		}
		wGroupOf := map[wKey]int{}
		var wMembers [][]int
		for k, w := range l.Writes {
			key := wKey{w.Arr, w.Op}
			gi := -1
			if l.MergeAccesses {
				if idx, ok := wGroupOf[key]; ok {
					gi = idx
				}
			}
			if gi < 0 {
				gi = len(st.wGroups)
				st.wGroups = append(st.wGroups, scatterGroup{arr: w.Arr, op: w.Op})
				wMembers = append(wMembers, nil)
				if l.MergeAccesses {
					wGroupOf[key] = gi
				}
			}
			wMembers[gi] = append(wMembers[gi], k)
		}
		st.wPlans = make([]accessPlan, len(l.Writes))
		writeInd := func(k int) *IntArray { return l.Writes[k].Ind }
		for gi := range st.wGroups {
			g := &st.wGroups[gi]
			g.sched = build(gi, g.arr, wMembers[gi], writeInd, st.wPlans)
		}

		l.insp = st
		l.s.Reg.Record(&l.rec, l.dataDADs(), l.indDADs())
	})
}

// Execute runs one executor iteration of the loop, re-running the
// inspector only when the registry's conservative check fails (the
// paper's schedule-reuse mechanism). Collective.
func (l *Loop) Execute() {
	// The reuse check itself is charged: a few descriptor comparisons.
	l.s.C.Words(2 * (len(l.Reads) + len(l.Writes)))
	if !l.s.Reg.Check(&l.rec, l.dataDADs(), l.indDADs()) || l.insp == nil {
		l.Inspect()
	}
	l.s.timed(TimerExecutor, func() { l.executor() })
}

// ExecuteNoReuse forces a fresh inspector before every executor pass —
// the paper's "no schedule reuse" baseline (Table 1).
func (l *Loop) ExecuteNoReuse() {
	l.Inspect()
	l.s.timed(TimerExecutor, func() { l.executor() })
}

// executor is Phase E: gather ghost values, run the kernel over local
// iterations, combine write contributions, scatter off-processor
// contributions back to their owners.
func (l *Loop) executor() {
	c := l.s.C
	st := l.insp

	// Gather read operands: one communication phase per group.
	ghosts := make([][]float64, len(st.rGroups))
	for gi, g := range st.rGroups {
		ghosts[gi] = make([]float64, g.sched.NGhost())
		g.sched.Gather(c, g.arr.Data, ghosts[gi])
	}

	// Prepare write accumulation buffers (local section + ghost
	// slots), initialized to the reduction identity; one per group.
	wbufs := make([][]float64, len(st.wGroups))
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
		nAcc := len(l.Reads) + len(l.Writes)
		ownersByAcc := make([][]int, 0, nAcc)
		for _, r := range l.Reads {
			o, _ := r.Arr.res.Resolve(c, r.Ind.Data)
			ownersByAcc = append(ownersByAcc, o)
		}
		for _, w := range l.Writes {
			o, _ := w.Arr.res.Resolve(c, w.Ind.Data)
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
		dest := iterpart.ChooseAll(refOwners, lhsOwner, blockHome, policy)
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
		l.iterRes = tab
	})
}
