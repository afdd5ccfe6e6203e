package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/ttable"
)

// newInspProg starts an inspector differential program on this rank:
// three arrays of n elements holding values of mixed sign and magnitude
// and three indirection arrays over nIter iterations, all BLOCK.
func newInspProg(t *testing.T, c *machine.Ctx, tr *inspTrace, n, nIter int) *inspProg {
	p := &inspProg{t: t, c: c, s: NewSession(c), tr: tr, n: n}
	p.x, p.y, p.z = p.s.NewArray("x", n), p.s.NewArray("y", n), p.s.NewArray("z", n)
	for i, a := range []*Array{p.x, p.y, p.z} {
		a.FillByGlobal(func(g int) float64 {
			return (float64(mix(g, i)%2000) - 1000) * math.Pow(2, float64(mix(g, i+3)%40-20))
		})
	}
	for i, ind := range []**IntArray{&p.e1, &p.e2, &p.e3} {
		*ind = p.s.NewIntArray(fmt.Sprintf("e%d", i+1), nIter)
		(*ind).FillByGlobal(func(g int) int { return mix(g, 10+i) % n })
	}
	return p
}

// reinspectProgram is one rank's run of a random program of steps and
// of everything that makes the next step re-inspect, written against
// TestInspectorMatchesReference's inspProg. Every draw that ranks must
// agree on comes from ctl, seeded alike on every rank and on both sides
// of the differential. On the fresh side every inspection starts from a
// loop that holds no inspector state, so all it builds is newly
// allocated; on the side under test the loop rebuilds in place, and the
// drop-on-idle rule of its workspace is checked after every step.
func reinspectProgram(p *inspProg, seed int64, fresh bool, ops int) {
	c, s := p.c, p.s
	ctl := rand.New(rand.NewSource(seed))
	stalls := rand.New(rand.NewSource(seed + int64(c.Rank())))
	arrays, inds := []*Array{p.x, p.y, p.z}, []*IntArray{p.e1, p.e2, p.e3}
	// Arrays with equal Redistribute histories are aligned and may move
	// together, which is what lets them share patterns again.
	hist := make([]string, len(arrays))
	reads := []Read{{p.x, p.e1}, {p.x, p.e2}, {p.y, p.e2}, {p.z, p.e1}, {p.x, p.e3}}
	writes := []Write{{p.y, p.e1, Add}, {p.y, p.e2, Add}, {p.z, p.e1, Max}, {p.y, p.e1, Max}, {p.z, p.e3, Add}, {p.x, p.e2, Min}}
	p.declare(reads[:2], writes[:2])
	l := p.loop

	step := func(noReuse bool) {
		if stalls.Intn(3) == 0 {
			time.Sleep(time.Duration(stalls.Intn(100)) * time.Microsecond)
		}
		if fresh {
			data, ind := l.dads()
			if noReuse || !s.Reg.Check(&l.rec, data, ind) {
				l.insp, l.ws = nil, nil
			}
		}
		hits, _ := s.Reg.Stats()
		replaces := l.insp != nil
		if noReuse {
			l.ExecuteNoReuse()
		} else {
			l.Execute()
		}
		if after, _ := s.Reg.Stats(); !fresh {
			reused := !noReuse && after != hits
			if want := !reused && replaces; (l.ws != nil) != want {
				p.t.Errorf("rank %d step %d: reused=%v over an inspector state=%v, yet holds a workspace=%v",
					c.Rank(), len(p.tr.clocks), reused, replaces, l.ws != nil)
			}
		}
		if pats := l.insp.pats; !fresh && slices.ContainsFunc(pats[len(pats):cap(pats)], func(q pattern) bool { return q.sched != nil }) {
			p.t.Errorf("rank %d step %d: a schedule beyond the %d patterns built is still held", c.Rank(), len(p.tr.clocks), len(pats))
		}
		p.tr.snapshot(c, l, arrays)
		// What the schedules say of themselves, per distinct pattern.
		last := len(p.tr.ints) - 1
		for _, pat := range l.insp.pats {
			ns, nr := pat.sched.Messages()
			p.tr.ints[last] = append(p.tr.ints[last], []int{pat.sched.NGhost(), pat.sched.SendCount(), ns, nr})
		}
	}

	for op := 0; op < ops; op++ {
		switch k := ctl.Intn(11); {
		case k < 4:
			step(true)
		case k < 6:
			step(false)
		case k < 8: // other access lists: longer, shorter, empty
			l.Reads, l.Writes = nil, nil
			for _, r := range reads {
				if ctl.Intn(3) == 0 {
					l.Reads = append(l.Reads, r)
				}
			}
			for _, w := range writes {
				if ctl.Intn(3) == 0 {
					l.Writes = append(l.Writes, w)
				}
			}
		case k == 8: // an array moves, alone or with some of those aligned with it
			a, shift := ctl.Intn(len(arrays)), 1+ctl.Intn(2)
			var moved []*Array
			for b := range arrays {
				if b == a || hist[b] == hist[a] && ctl.Intn(2) == 0 {
					moved = append(moved, arrays[b])
					hist[b] += fmt.Sprint(shift)
				}
			}
			p.redistribute(shift, moved...)
		case k == 9: // condition 3, with reference lists of another spread
			e, span, salt := inds[ctl.Intn(len(inds))], []int{1, p.n / 4, p.n}[ctl.Intn(3)], ctl.Int()
			e.FillByGlobal(func(g int) int { return mix(g, salt) % span })
		default: // Phase B, when it would move every indirection array
			var used [3]bool
			for i, e := range inds {
				used[i] = slices.ContainsFunc(l.Reads, func(r Read) bool { return r.Ind == e }) ||
					slices.ContainsFunc(l.Writes, func(w Write) bool { return w.Ind == e })
			}
			if used == [3]bool{true, true, true} {
				l.PartitionIterations(iterpart.AlmostOwnerComputes)
			}
		}
	}
	step(true)
	l.Reads, l.Writes = nil, nil // nothing to build at all, then everything again
	step(true)
	l.Reads, l.Writes = reads, writes
	step(true)
	step(false)
}

// TestReinspectInPlaceMatchesFresh is the loop-level differential test
// of in-place re-inspection, with the fresh inspection as its oracle:
// random programs of no-reuse and reusing steps between which the
// access lists grow, shrink and empty, arrays are
// redistributed alone (patterns stop being shared) and together again
// (they share anew), indirection arrays are rewritten over narrow and
// wide index ranges and iterations are repartitioned — starting from
// BLOCK arrays, whose Regular resolvers put no collective between a
// step's last scatter and the next build. After every step the arrays,
// ghost and accumulation buffers, reference vectors, schedule
// summaries and per-rank virtual clocks of the loop that rebuilds in
// place equal, bit for bit, those of the loop that builds everything
// anew. P = 1, 3 and 8, random per-rank stalls; run under -race.
func TestReinspectInPlaceMatchesFresh(t *testing.T) {
	for _, sh := range []struct{ p, n, nIter int }{{1, 12, 296}, {3, 48, 100}, {8, 48, 100}} {
		for seed := int64(1); seed <= 4; seed++ {
			label := fmt.Sprintf("P=%d seed %d", sh.p, seed)
			run := func(fresh bool) []inspTrace {
				cfg := machine.IPSC860(sh.p)
				traces := make([]inspTrace, sh.p)
				err := machine.Run(cfg, func(c *machine.Ctx) {
					reinspectProgram(newInspProg(t, c, &traces[c.Rank()], sh.n, sh.nIter), seed, fresh, 50)
				})
				if err != nil {
					t.Fatalf("%s fresh=%v: %v", label, fresh, err)
				}
				return traces
			}
			want, got := run(true), run(false)
			for r := range want {
				if d := got[r].diff(&want[r]); d != "" {
					t.Fatalf("%s rank %d: %s", label, r, d)
				}
			}
		}
	}
}

// panicResolver is a resolver that fails once armed, as a send-range
// check or an aborted collective inside a build would.
type panicResolver struct {
	ttable.Resolver
	armed *bool
}

func (r panicResolver) ResolveInto(c *machine.Ctx, ws *ttable.Workspace, globals []int) (owners, locals []int) {
	if *r.armed {
		panic("resolver failed")
	}
	return r.Resolver.ResolveInto(c, ws, globals)
}

// accepted reports whether the reuse check accepts l's saved record
// against the loop's current descriptors.
func accepted(l *Loop) bool {
	data, ind := l.dads()
	return l.s.Reg.Check(&l.rec, data, ind)
}

// A re-inspection that fails half way — its first schedule rebuilt in
// place, its second not — leaves no record the reuse check would
// accept: Inspect invalidates the record before it overwrites anything.
func TestFailedReinspectionLeavesNoValidRecord(t *testing.T) {
	const p = 3
	loops := make([]*Loop, p)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y := s.NewArray("x", 30), s.NewArray("y", 30)
		ind := s.NewIntArray("ind", 20)
		ind.FillByGlobal(func(g int) int { return (7 * g) % 30 })
		armed := false
		y.res = panicResolver{y.res, &armed}
		loop := s.NewLoop("fails", 20, []Read{{x, ind}}, []Write{{y, ind, Add}}, 1,
			perIter(func(_ int, in, out []float64) { out[0] = in[0] }))
		loops[c.Rank()] = loop
		loop.Execute()
		loop.Execute()
		if !accepted(loop) || len(loop.insp.pats) != 2 {
			t.Errorf("rank %d: record accepted=%v over %d patterns before the failure", c.Rank(), accepted(loop), len(loop.insp.pats))
		}
		armed = true
		loop.Inspect()
	})
	if err == nil {
		t.Fatal("the failing resolver did not stop the run")
	}
	for r, loop := range loops {
		if accepted(loop) {
			t.Errorf("rank %d: the record of a half-finished re-inspection is still valid", r)
		}
	}
}

// A read array resized or replaced through Data behind the registry's
// back is refused at the next reusing step, with the loop and the array
// named, instead of having its operands read at the inspected offsets
// (appending one element would shift every ghost operand by one).
func TestExecutorRefusesStaleOperands(t *testing.T) {
	for name, detach := range map[string]func(x *Array){
		"appended": func(x *Array) { x.Data = append(x.Data, -1) },
		"shrunk":   func(x *Array) { x.Data = x.Data[:len(x.Data)-1] },
		"replaced": func(x *Array) { x.Data = slices.Clone(x.Data) },
	} {
		t.Run(name, func(t *testing.T) {
			err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
				s := NewSession(c)
				x, y := s.NewArray("x", 10), s.NewArray("y", 10)
				x.FillByGlobal(func(g int) float64 { return float64(100 + g) })
				ind := s.NewIntArray("ind", 10)
				ind.FillByGlobal(func(g int) int { return (g + 5) % 10 }) // every operand a ghost
				loop := s.NewLoop("operands", 10, []Read{{x, ind}}, []Write{{y, ind, Add}}, 1,
					perIter(func(_ int, in, out []float64) { out[0] = in[0] }))
				loop.Execute()
				detach(x)
				loop.Execute()
			})
			if err == nil {
				t.Fatal("the executor read operands of an array resized behind the registry's back")
			}
			if msg := err.Error(); !strings.Contains(msg, `loop "operands"`) || !strings.Contains(msg, `"x"`) {
				t.Errorf("the refusal does not name the loop and the array: %v", err)
			}
		})
	}
}

// heapAround runs body on every rank between two barriers and returns
// the heap and the count of allocated objects before and after, read
// by rank 0 after a collection while the others wait.
func heapAround(c *machine.Ctx, body func()) (before, after runtime.MemStats) {
	read := func(m *runtime.MemStats) {
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(m)
		}
		c.Barrier()
	}
	read(&before)
	body()
	read(&after)
	return before, after
}

// Two inspections back to back keep the workspace for a third; the
// reusing step that follows drops it, and what the loop then retains is
// within the bound of TestInspectRetainsNoWorkspace: schedules,
// reference vectors and executor buffers, no inspector scratch.
func TestReuseDropsInspectorWorkspace(t *testing.T) {
	m := mesh.Generate(10000, 1993)
	const p = 4
	var before, after runtime.MemStats
	refWords := make([]int, p)
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		loop, _ := eulerLoop(c, m)
		b, a := heapAround(c, func() {
			loop.Inspect()
			if loop.ws != nil {
				t.Errorf("rank %d: a first inspection kept its workspace", c.Rank())
			}
			loop.Inspect()
			if loop.ws == nil {
				t.Errorf("rank %d: a re-inspection dropped its workspace", c.Rank())
			}
			loop.Execute()
			if loop.ws != nil {
				t.Errorf("rank %d: the loop holds a workspace after a passing reuse check", c.Rank())
			}
		})
		if c.Rank() == 0 {
			before, after = b, a
		}
		if hits, _ := loop.s.Reg.Stats(); hits != 1 {
			t.Errorf("rank %d: %d reuse hits, want 1", c.Rank(), hits)
		}
		for _, ref := range loop.insp.refs {
			refWords[c.Rank()] += len(ref)
		}
		runtime.KeepAlive(loop)
	})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := 0
	for _, w := range refWords {
		refBytes += 8 * w
	}
	grown := int(after.HeapAlloc) - int(before.HeapAlloc)
	if grown > 3*refBytes/2 {
		t.Errorf("inspect, inspect, execute retained %d bytes for %d bytes of reference vectors", grown, refBytes)
	}
}

// From the third of back-to-back no-reuse steps on, a step allocates
// nothing: the workspace is kept, schedules, reference vectors and
// inspector state are rebuilt in place, and every transport slab
// exists. Two objects per rank and step are allowed for
// whatever else the process does meanwhile.
func TestBackToBackNoReuseStepsStopAllocating(t *testing.T) {
	m := mesh.Generate(10000, 1993)
	const p, steps = 4, 5
	var mallocs uint64
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		loop, _ := eulerLoop(c, m)
		loop.ExecuteNoReuse()
		loop.ExecuteNoReuse()
		b, a := heapAround(c, func() {
			for i := 0; i < steps; i++ {
				loop.ExecuteNoReuse()
			}
		})
		if c.Rank() == 0 {
			mallocs = a.Mallocs - b.Mallocs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mallocs > 2*p*steps {
		t.Errorf("%d no-reuse steps on %d ranks allocated %d objects, want at most %d", steps, p, mallocs, 2*p*steps)
	}
}
