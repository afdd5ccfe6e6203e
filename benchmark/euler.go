package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"chaos/internal/core"
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/iterpart"
	"chaos/internal/lang"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
	"chaos/internal/registry"
	"chaos/internal/schedule"
	"chaos/internal/ttable"
)

// The Euler workloads are the paper's Table 1: the unstructured-mesh
// edge sweep on 8 simulated iPSC/860 nodes after RCB partitioning, one
// executor step per op, with the inspector's schedules either reused
// (euler_reuse, on the paper's 53K mesh) or rebuilt before every step
// (euler_noreuse, on its 10K mesh: a no-reuse step on the large mesh
// is a 25 ms op, too long to ever run undisturbed on a shared host).

const (
	eulerProcs      = 8
	eulerNodes53K   = 53000 // mesh.Generate rounds to 38³ = 54 872
	eulerNodes10K   = 10000 // 22³ = 10 648
	eulerNodesQuick = 1000
)

func eulerReuse() workload {
	w := workload{
		name:            "euler_reuse",
		why:             "paper Table 1 with schedule reuse: executor-bound (gather, kernel, scatter, transport, reuse check); inspector, partitioners and service idle",
		kinds:           []string{"reuse_step"},
		roundsPerSecond: 250,
	}
	w.run = func(p params, tr *tracer, rec *recorder) (setupInfo, error) {
		return runEuler(w, p, tr, rec, eulerNodes53K, false)
	}
	return w
}

func eulerNoReuse() workload {
	w := workload{
		name:            "euler_noreuse",
		why:             "paper Table 1 without reuse: the same layers building schedules before every step, so inspector, schedule-build and translation-table work shows here and not in euler_reuse ops",
		kinds:           []string{"noreuse_step"},
		roundsPerSecond: 115,
		setups:          21,
	}
	w.run = func(p params, tr *tracer, rec *recorder) (setupInfo, error) {
		return runEuler(w, p, tr, rec, eulerNodes10K, true)
	}
	return w
}

// runEuler performs one fresh set-up of the Euler pipeline (mesh,
// arrays, CONSTRUCT, RCB, REDISTRIBUTE, loop, iteration partitioning,
// first step) and, given a recorder, the timed phase inside the same
// SPMD run — sessions live only as long as their machine.
func runEuler(w workload, p params, tr *tracer, rec *recorder, nodes int, noreuse bool) (setupInfo, error) {
	if p.quick {
		nodes = eulerNodesQuick
	}
	kind := w.kinds[0]

	t0 := time.Now()
	setupSpan := tr.begin(0, 0, "", "setup", 0)
	id := tr.begin(setupSpan, 0, "", "mesh.Generate", 0)
	m := mesh.Generate(nodes, p.seed)
	tr.end(id, 0)

	var info setupInfo
	part := make([]int, m.NNode)       // RCB's map array, gathered by home block
	yFinal := make([]float64, m.NNode) // y after the last step, by global index
	steps := 0                         // executor steps run, for the oracle
	rounds := w.rounds(p)

	_, err := machine.RunStats(context.Background(), machine.IPSC860(eulerProcs), func(c *machine.Ctx) {
		root := c.Rank() == 0
		// Only rank 0 records; a nil tracer swallows the other ranks' calls.
		var rtr *tracer
		if root {
			rtr = tr
		}
		timed := func(name string, f func()) {
			id := rtr.begin(setupSpan, 0, "", name, c.Clock())
			f()
			rtr.end(id, c.Clock())
		}

		s := core.NewSession(c)
		x := s.NewArray("x", m.NNode)
		y := s.NewArray("y", m.NNode)
		x.FillByGlobal(m.InitialState)
		y.FillByGlobal(func(int) float64 { return 0 })
		e1 := s.NewIntArray("end_pt1", m.NEdge())
		e2 := s.NewIntArray("end_pt2", m.NEdge())
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int { return m.E2[g] })
		xc := s.NewArray("xc", m.NNode)
		yc := s.NewArray("yc", m.NNode)
		zc := s.NewArray("zc", m.NNode)
		xc.FillByGlobal(func(g int) float64 { return m.X[g] })
		yc.FillByGlobal(func(g int) float64 { return m.Y[g] })
		zc.FillByGlobal(func(g int) float64 { return m.Z[g] })

		var g *geocol.Graph
		var mp *core.Mapping
		timed("core.Session.Construct", func() {
			g = s.Construct(m.NNode, core.GeoColInput{Geometry: []*core.Array{xc, yc, zc}})
		})
		timed("core.Session.SetPartitioning", func() {
			var err error
			if mp, err = s.SetPartitioning(g, partition.Spec{Method: partition.MethodRCB}, eulerProcs); err != nil {
				panic(err)
			}
		})
		home := dist.NewBlock(m.NNode, eulerProcs)
		copy(part[home.Lo(c.Rank()):], mp.LocalPart())
		timed("core.Session.Redistribute", func() { s.Redistribute(mp, []*core.Array{x, y}, nil) })

		loop := s.NewLoop("sweep", m.NEdge(),
			[]core.Read{{Arr: x, Ind: e1}, {Arr: x, Ind: e2}},
			[]core.Write{{Arr: y, Ind: e1, Op: core.Add}, {Arr: y, Ind: e2, Op: core.Add}},
			mesh.EulerFlops, mesh.EulerFlux)
		timed("core.Loop.PartitionIterations", func() { loop.PartitionIterations(iterpart.AlmostOwnerComputes) })
		step, stepName := loop.Execute, "core.Loop.Execute"
		if noreuse {
			step, stepName = loop.ExecuteNoReuse, "core.Loop.ExecuteNoReuse"
		}
		timed("first step", loop.Execute)
		ran := 1 // executor steps this rank has run; identical on every rank
		c.Barrier()
		if root {
			info.wallS = time.Since(t0).Seconds()
			info.virtualS = c.Clock()
			rtr.end(setupSpan, c.Clock())
		}
		if rec == nil {
			return
		}

		if root {
			info.heapMB = liveHeapMB()
		}
		c.Barrier() // nobody allocates while rank 0 measures
		step()      // warm-up, untimed
		c.Barrier()
		var m0, m1 runtime.MemStats
		if root {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		step()
		c.Barrier()
		if root {
			runtime.ReadMemStats(&m1)
			rec.kindAllocs[0] = float64(m1.Mallocs - m0.Mallocs)
			rec.startTimed()
		}
		c.Barrier()
		ran += 2

		// Timed phase. An op runs from one global completion time to
		// the next (syncNow); every rank sees the same times, so the
		// safety stop needs no flag of its own.
		deadline := rec.deadline.Sub(epoch).Nanoseconds()
		tprev, vprev := syncNow(c), c.Clock()
		for i := 0; i < rounds; i++ {
			traced := root && rec.tracedRound(i)
			call := 0
			if traced {
				call = rtr.begin(0, i, kind, stepName, c.Clock())
			}
			step()
			if traced {
				rtr.end(call, c.Clock())
			}
			t, v := syncNow(c), c.Clock()
			if root {
				rec.op(0, time.Duration(t-tprev), v-vprev, traced)
				if traced {
					rtr.adopt(call, rtr.add(span{Op: i, Kind: kind, Name: "op",
						StartNS: tprev, EndNS: t, VirtualStart: vprev, VirtualEnd: v}))
				}
			}
			tprev, vprev = t, v
			ran++
			if t > deadline {
				if root {
					rec.cutShort = true
				}
				break
			}
		}
		if root {
			rec.stopTimed()
		}

		if tr != nil {
			ran += eulerProbes(c, s, rec, rtr, loop, x, e1, e2, m)
		}
		for i, g := range y.MyGlobals() {
			yFinal[g] = y.Data[i]
		}
		if root {
			steps = ran
		}
	})
	if err != nil || rec == nil {
		return info, err
	}

	// Oracles: the set-up partition is valid and balanced (RCB splits
	// at medians: within 1 %), and y is steps serial sweeps.
	if err := rec.judgePartition(0, m.E1, m.E2, part, m.NNode, eulerProcs, 0.01, -1); err != nil {
		rec.failed = rec.attempted
	}
	x0 := make([]float64, m.NNode)
	for v := range x0 {
		x0[v] = m.InitialState(v)
	}
	rec.judgeEuler(yFinal, eulerSweep(m.E1, m.E2, x0, mesh.EulerFlux), steps)
	if tr != nil {
		moved := 0
		home := dist.NewBlock(m.NNode, eulerProcs)
		for v, q := range part {
			if q != home.Owner(v) {
				moved++
			}
		}
		rec.layers["remap.moved_mb"] = float64(moved) * 2 * 8 / 1e6 // x and y, computed
	}
	return info, nil
}

// eulerProbes times each runtime layer's public entry points on the
// workload's own arrays, after the timed phase, and returns how many
// extra executor steps it ran. Collective.
func eulerProbes(c *machine.Ctx, s *core.Session, rec *recorder, tr *tracer, loop *core.Loop, x *core.Array, e1, e2 *core.IntArray, m *mesh.Mesh) int {
	root := c.Rank() == 0
	probe := func(name string, f func()) float64 { return spmdProbe(c, tr, name, f) }
	const reps = 5

	// Reuse-guard counters first: the probes below add to them.
	hits, misses := s.Reg.Stats()

	var tab *ttable.Table
	for i := 0; i < reps; i++ {
		probe("ttable.Build", func() { tab = ttable.Build(c, m.NNode, x.MyGlobals()) })
	}
	for i := 0; i < reps; i++ {
		probe("ttable.Table.Resolve", func() {
			owners, _ := tab.Resolve(c, e2.Data)
			sink.Add(int64(len(owners)))
		})
	}

	// The loop gathers x and scatters y through one schedule per
	// endpoint array. Under almost-owner-computes an edge runs where its
	// first endpoint lives, so the end_pt1 schedules come out empty and
	// the end_pt2 ones carry every ghost; a step pays for all four.
	var sch [2]*schedule.Schedule
	var buildAllocs float64
	for i := 0; i < reps; i++ {
		sch[0], _ = schedule.BuildGather(c, x.Resolver(), len(x.Data), e1.Data, schedule.Options{})
		buildAllocs = probe("schedule.BuildGather", func() {
			sch[1], _ = schedule.BuildGather(c, x.Resolver(), len(x.Data), e2.Data, schedule.Options{})
		})
	}
	scratch := make([]float64, len(x.Data))
	var nsend, ghosts, words int
	for j, name := range []string{"end_pt1", "end_pt2"} {
		ghost := make([]float64, sch[j].NGhost())
		for i := 0; i < 10*reps; i++ {
			probe("schedule.Schedule.Gather "+name, func() { sch[j].Gather(c, x.Data, ghost) })
		}
		for i := range ghost {
			ghost[i] = 0 // scatter-add nothing: scratch stays clean
		}
		for i := 0; i < 10*reps; i++ {
			probe("schedule.Schedule.ScatterAdd "+name, func() { sch[j].ScatterAdd(c, scratch, ghost) })
		}
		n, _ := sch[j].Messages()
		nsend += n
		ghosts += sch[j].NGhost()
		words += sch[j].SendCount()
	}
	ghostsMax := c.MaxInt(ghosts)
	msgs := c.SumInt(nsend)
	words = c.SumInt(words)

	insp0 := s.TimerMax(core.TimerInspector)
	for i := 0; i < reps; i++ {
		probe("core.Loop.Inspect", loop.Inspect)
	}
	inspVirtual := (s.TimerMax(core.TimerInspector) - insp0) / reps
	exec0 := s.TimerMax(core.TimerExecutor)
	for i := 0; i < 10*reps; i++ {
		probe("core.Loop.Execute", loop.Execute)
	}
	execVirtual := (s.TimerMax(core.TimerExecutor) - exec0) / (10 * reps)

	if !root {
		return 10 * reps
	}
	// The reuse check is rank-local bookkeeping; rank 0 times it alone.
	dads := []dist.DAD{x.DAD(), x.DAD()}
	inds := []dist.DAD{e1.DAD(), e1.DAD()}
	var lr registry.LoopRecord
	s.Reg.Record(&lr, dads, inds)
	const checks = 200000
	t0 := time.Now()
	for i := 0; i < checks; i++ {
		if !s.Reg.Check(&lr, dads, inds) {
			panic("benchmark: registry probe: a valid record failed its check")
		}
	}
	checkNS := float64(time.Since(t0).Nanoseconds()) / checks

	t0 = time.Now()
	if _, err := lang.Compile(eulerSource(m)); err != nil {
		panic(err)
	}
	compileUS := float64(time.Since(t0).Nanoseconds()) / 1e3

	gatherUS := 1e3 * (tr.probeMS("schedule.Schedule.Gather end_pt1") + tr.probeMS("schedule.Schedule.Gather end_pt2"))
	scatterUS := 1e3 * (tr.probeMS("schedule.Schedule.ScatterAdd end_pt1") + tr.probeMS("schedule.Schedule.ScatterAdd end_pt2"))
	executeUS := 1e3 * tr.probeMS("core.Loop.Execute")
	refs := float64(m.NEdge()) // end_pt2 only: one reference per edge
	l := rec.layers
	l["mesh.generate_ms"] = tr.fastestMS("mesh.Generate")
	l["geocol.build_ms"] = tr.fastestMS("core.Session.Construct")
	l["geocol.build_virtual_s"] = s.Timer(core.TimerGraphGen)
	l["partition.rcb_ms"] = tr.fastestMS("core.Session.SetPartitioning")
	l["partition.rcb_virtual_s"] = s.Timer(core.TimerPartition)
	l["remap.redistribute_ms"] = tr.fastestMS("core.Session.Redistribute")
	l["remap.redistribute_virtual_s"] = tr.virtualS("core.Session.Redistribute")
	l["iterpart.partition_iterations_ms"] = tr.fastestMS("core.Loop.PartitionIterations")
	l["iterpart.partition_iterations_virtual_s"] = tr.virtualS("core.Loop.PartitionIterations")
	l["ttable.build_ms"] = tr.probeMS("ttable.Build")
	l["ttable.resolve_us_per_kref"] = 1e3 * tr.probeMS("ttable.Table.Resolve") / (refs / 1e3)
	l["ttable.resolve_virtual_s"] = tr.probeVirtualS("ttable.Table.Resolve")
	l["schedule.build_gather_ms"] = tr.probeMS("schedule.BuildGather")
	l["schedule.build_gather_virtual_s"] = tr.probeVirtualS("schedule.BuildGather")
	l["schedule.build_gather_allocs"] = buildAllocs
	l["schedule.gather_us"] = gatherUS
	l["schedule.scatter_add_us"] = scatterUS
	l["schedule.ghosts_max"] = float64(ghostsMax)
	l["schedule.msgs_per_gather"] = float64(msgs)
	l["schedule.send_words"] = float64(words)
	l["core.inspect_ms"] = tr.probeMS("core.Loop.Inspect")
	l["core.inspect_virtual_s"] = inspVirtual
	l["core.execute_virtual_s"] = execVirtual
	l["core.kernel_self_us"] = executeUS - gatherUS - scatterUS
	l["core.noreuse_inspect_share"] = inspVirtual / (inspVirtual + execVirtual)
	l["registry.check_ns"] = checkNS
	l["registry.hits"] = float64(hits)
	l["registry.misses"] = float64(misses)
	l["lang.compile_us"] = compileUS
	self := selfTimes(tr.spans)
	for i, sp := range tr.named("setup") {
		if ms := float64(self[sp.ID]) / 1e6; i == 0 || ms < l["core.setup_self_ms"] {
			l["core.setup_self_ms"] = ms
		}
	}
	return 10 * reps
}

// eulerSource is the Euler sweep as the Fortran-90D program the front
// end compiles (the paper's Figure 4 shape, with RCB over GEOMETRY
// replaced by the LINK form the front end accepts).
func eulerSource(m *mesh.Mesh) string {
	return fmt.Sprintf(`
      PROGRAM euler
      PARAMETER (nnode = %d, nedge = %d, nsweep = 100)
      REAL*8 x(nnode), y(nnode)
      INTEGER end_pt1(nedge), end_pt2(nedge)
      DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
      DISTRIBUTE reg(BLOCK), reg2(BLOCK)
      ALIGN x, y WITH reg
      ALIGN end_pt1, end_pt2 WITH reg2
      READ end_pt1, end_pt2, x
      FORALL i = 1, nnode
        y(i) = 0.0
      END FORALL
C$    CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$    SET distfmt BY PARTITIONING G USING RSB
C$    REDISTRIBUTE reg(distfmt)
      DO t = 1, nsweep
        FORALL i = 1, nedge
          REDUCE (ADD, y(end_pt1(i)), (0.5*(x(end_pt1(i))+x(end_pt2(i))))**2 + 0.5*(x(end_pt2(i))-x(end_pt1(i))))
          REDUCE (ADD, y(end_pt2(i)), (0.5*(x(end_pt1(i))+x(end_pt2(i))))**2 - 0.5*(x(end_pt2(i))-x(end_pt1(i))))
        END FORALL
      END DO
      END
`, m.NNode, m.NEdge())
}
