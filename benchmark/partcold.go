package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
	"chaos/internal/stream"
	"chaos/internal/xrand"
)

// partition_cold runs the partitioner library cold, three kinds in
// round-robin on one lattice mesh: serial MULTILEVEL (the plain
// single-rank baseline), the 8-rank distributed V-cycle including the
// GeoCoL build, and STREAM out-of-core over an edge-stream file.

const (
	coldSide      = 16 // 16³ = 4 096 vertices, 22 800 edges
	coldSideQuick = 13 // 2 197: just over MULTILEVEL's distributed threshold
	coldParts     = 8
	coldProcs     = 8

	// The distributed V-cycle's refiners never move a vertex into a part
	// that would leave Multilevel's 7 % Imbalance window, but they do not
	// repair a projected coarse solve that starts outside it: one
	// partition in ~10 000 of these lattices ends at 7.4 %. What the
	// library itself promises and tests (TestParallelMultilevelBalance)
	// is 10 %.
	mlDistTol = 0.10
	streamTol = 0.05 // stream.Options' default Slack, a hard capacity
	// The serial V-cycle has no k-way tolerance: each of its log2(k)
	// bisection levels may leave klRefine's slack plus one 1 %-capped
	// coarse vertex. The library's own TestMultilevelBalance allows
	// 10 % after two levels; three levels reach 12 % on these lattices.
	mlSerialTol = 0.15
)

func partitionCold() workload {
	w := workload{
		name:            "partition_cold",
		why:             "partitioner-bound: coarsen/match/contract, coarse solve, FM, ghost exchange, all-to-all; serial MULTILEVEL is the one-thread baseline, STREAM guards the cut/memory contract; executor and service idle",
		kinds:           []string{"ml_serial", "ml_dist8", "stream"},
		roundsPerSecond: 12.0,
		setups:          21,
	}
	w.run = func(p params, tr *tracer, rec *recorder) (setupInfo, error) { return runPartitionCold(w, p, tr, rec) }
	return w
}

// coldInstance is one set-up of partition_cold.
type coldInstance struct {
	m    *mesh.Mesh
	path string // the lattice as a "cs v1" edge-stream file
	side int
	seed uint64 // the lattice's own seed
}

// opCtx says which op a call belongs to, for its spans. The zero value
// with a nil tracer records nothing.
type opCtx struct {
	tr     *tracer
	parent int
	op     int
	kind   string
}

func (o opCtx) span(name string, virtual float64) int {
	return o.tr.begin(o.parent, o.op, o.kind, name, virtual)
}

// mlSerial is kind ml_serial: MULTILEVEL on one simulated node.
func (in *coldInstance) mlSerial(o opCtx) (part []int, virtual float64, err error) {
	st, err := machine.RunStats(context.Background(), machine.IPSC860(1), func(c *machine.Ctx) {
		id := o.span("geocol.Build", c.Clock())
		g := geocol.Build(c, in.m.NNode, geocol.WithLink(in.m.E1, in.m.E2))
		o.tr.end(id, c.Clock())
		id = o.span("partition.Multilevel.Partition", c.Clock())
		part = partition.Multilevel{}.Partition(c, g, coldParts)
		o.tr.end(id, c.Clock())
	})
	return part, st.MaxClock, err
}

// mlDist8 is kind ml_dist8: GeoCoL build plus the distributed V-cycle
// on 8 simulated nodes, each holding a block of the edge list.
func (in *coldInstance) mlDist8(o opCtx) (part []int, virtual float64, err error) {
	edges := dist.NewBlock(in.m.NEdge(), coldProcs)
	st, err := machine.RunStats(context.Background(), machine.IPSC860(coldProcs), func(c *machine.Ctx) {
		ro := opCtx{}
		if c.Rank() == 0 {
			ro = o
		}
		lo, hi := edges.Lo(c.Rank()), edges.Hi(c.Rank())
		id := ro.span("geocol.Build", c.Clock())
		g := geocol.Build(c, in.m.NNode, geocol.WithLink(in.m.E1[lo:hi], in.m.E2[lo:hi]))
		ro.tr.end(id, c.Clock())
		id = ro.span("partition.Multilevel.PartitionLadder", c.Clock())
		local, _ := partition.Multilevel{}.PartitionLadder(c, g, coldParts)
		ro.tr.end(id, c.Clock())
		id = ro.span("machine.Ctx.AllGatherInts", c.Clock())
		full := c.AllGatherInts(local) // BLOCK home: rank order is vertex order
		ro.tr.end(id, c.Clock())
		if c.Rank() == 0 {
			part = full
		}
	})
	return part, st.MaxClock, err
}

// streamFile is kind stream: STREAM over the edge-stream file, the
// graph never resident. It is machine-free, so it charges no
// simulated time.
func (in *coldInstance) streamFile(o opCtx) (part []int, virtual float64, err error) {
	f, err := os.Open(in.path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	id := o.span("stream.Partition", 0)
	defer o.tr.end(id, 0)
	rd, err := stream.NewReader(f)
	if err != nil {
		return nil, 0, err
	}
	part, err = stream.Partition(rd, coldParts, stream.Options{})
	return part, 0, err
}

// newColdInstance generates lattice number idx of the run — every
// round partitions a graph of its own, so the run's mean cut and
// simulated time average over the renumbering instead of hanging on
// one draw of it — and writes it to path as an edge-stream file.
func newColdInstance(p params, tr *tracer, parent int, path string, idx int) (*coldInstance, error) {
	side := coldSide
	if p.quick {
		side = coldSideQuick
	}
	seed := xrand.Hash64(p.seed ^ xrand.Hash64(uint64(idx)+1))
	id := tr.begin(parent, idx, "", "mesh.GenerateLattice", 0)
	in := &coldInstance{m: mesh.GenerateLattice(side, side, side, seed), path: path, side: side, seed: seed}
	tr.end(id, 0)
	id = tr.begin(parent, idx, "", "stream.Copy", 0)
	err := in.writeStreamFile()
	tr.end(id, 0)
	return in, err
}

func runPartitionCold(w workload, p params, tr *tracer, rec *recorder) (setupInfo, error) {
	t0 := time.Now()
	setupSpan := tr.begin(0, 0, "", "setup", 0)
	dir, err := os.MkdirTemp(p.tmpDir, ".bench_tmp-")
	if err != nil {
		return setupInfo{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "lattice.cs")
	first, err := newColdInstance(p, tr, setupSpan, path, 0)
	if err != nil {
		return setupInfo{}, err
	}

	tols := []float64{mlSerialTol, mlDistTol, streamTol}
	// run performs one op of kind k on in and puts its partition through
	// the oracle; a timed op is also recorded.
	run := func(in *coldInstance, k, round int, timed bool) (virtual float64, err error) {
		ops := []func(opCtx) ([]int, float64, error){in.mlSerial, in.mlDist8, in.streamFile}
		o := opCtx{}
		traced := timed && rec.tracedRound(round)
		if traced {
			o = opCtx{tr: tr, op: round, kind: w.kinds[k]}
			o.parent = tr.begin(0, round, w.kinds[k], "op", 0)
		}
		start := time.Now()
		part, virtual, err := ops[k](o)
		wall := time.Since(start)
		if traced {
			tr.end(o.parent, virtual)
		}
		if timed {
			rec.op(k, wall, virtual, traced)
		}
		if err != nil {
			if timed {
				rec.fail(err)
			}
			return virtual, err
		}
		if timed {
			return virtual, rec.judgePartition(k, in.m.E1, in.m.E2, part, in.m.NNode, coldParts, tols[k], -1)
		}
		_, _, err = checkPartition(in.m.E1, in.m.E2, part, in.m.NNode, coldParts, tols[k], -1)
		return virtual, err
	}

	// Set-up ends with one op per kind, which is also each kind's
	// first warm-up.
	var info setupInfo
	for k := range w.kinds {
		v, err := run(first, k, 0, false)
		if err != nil {
			return setupInfo{}, fmt.Errorf("set-up op %s: %w", w.kinds[k], err)
		}
		info.virtualS += v
	}
	info.wallS = time.Since(t0).Seconds()
	tr.end(setupSpan, info.virtualS)
	if rec == nil {
		return info, nil
	}

	info.heapMB = liveHeapMB()
	for k := range w.kinds {
		var err error
		rec.kindAllocs[k] = mallocsOf(func() { _, err = run(first, k, 0, false) })
		if err != nil {
			return setupInfo{}, fmt.Errorf("warm-up op %s: %w", w.kinds[k], err)
		}
	}
	rec.startTimed()
	for round := 0; round < w.rounds(p) && !rec.expired(); round++ {
		in, err := newColdInstance(p, nil, 0, path, round+1)
		if err != nil {
			return setupInfo{}, err
		}
		for k := range w.kinds {
			run(in, k, round, true) // a failure is counted where it is found
		}
	}
	rec.stopTimed()

	if tr != nil {
		if err := first.writeStreamFile(); err != nil {
			return setupInfo{}, err
		}
		if err := coldProbes(first, tr, rec.layers); err != nil {
			return setupInfo{}, err
		}
	}
	return info, nil
}

// writeStreamFile writes the lattice as an edge-stream file straight
// from the generator, the way cmd/meshgen -stream does: adjacency is
// computed on the fly and never materialised.
func (in *coldInstance) writeStreamFile() error {
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	if _, err := stream.Copy(f, stream.FromSource(mesh.NewLatticeSource(in.side, in.side, in.side, in.seed), 0)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coldProbes times the partitioner stack's layers one public call at a
// time on the workload's own lattice.
func coldProbes(in *coldInstance, tr *tracer, l map[string]float64) error {
	const reps = 3
	m := in.m

	// 8 ranks: GeoCoL build, ghost exchange, coarse assembly, V-cycle.
	var pushAllocs, distAllocs, ladderBytes float64
	var depth int
	var distPart []int
	edges := dist.NewBlock(m.NEdge(), coldProcs)
	_, err := machine.RunStats(context.Background(), machine.IPSC860(coldProcs), func(c *machine.Ctx) {
		var rtr *tracer
		if c.Rank() == 0 {
			rtr = tr
		}
		lo, hi := edges.Lo(c.Rank()), edges.Hi(c.Rank())
		var g *geocol.Graph
		for i := 0; i < reps; i++ {
			spmdProbe(c, rtr, "geocol.Build", func() {
				g = geocol.Build(c, m.NNode, geocol.WithLink(m.E1[lo:hi], m.E2[lo:hi]))
			})
		}
		var ge *geocol.GhostExchange
		for i := 0; i < reps; i++ {
			spmdProbe(c, rtr, "geocol.NewGhostExchange", func() { ge = geocol.NewGhostExchange(c, g) })
		}
		// Pair neighbours in vertex order: cluster v/2.
		vlo := g.Home.Lo(c.Rank())
		cmap := make([]int, g.LocalN(c.Rank()))
		for i := range cmap {
			cmap[i] = (vlo + i) / 2
		}
		var ghost []int
		for i := 0; i < 20*reps; i++ {
			a := spmdProbe(c, rtr, "geocol.GhostExchange.PushIntsInto", func() { ghost = ge.PushIntsInto(c, cmap, ghost) })
			if c.Rank() == 0 {
				pushAllocs = a
			}
		}
		for i := 0; i < reps; i++ {
			spmdProbe(c, rtr, "geocol.BuildCoarse", func() {
				sink.Add(int64(geocol.BuildCoarse(c, g, ge, cmap, (m.NNode+1)/2).N))
			})
		}
		var local []int
		var ld *partition.Ladder
		for i := 0; i < reps; i++ {
			a := spmdProbe(c, rtr, "partition.Multilevel.PartitionLadder", func() {
				local, ld = partition.Multilevel{}.PartitionLadder(c, g, coldParts)
			})
			if c.Rank() == 0 {
				distAllocs = a
			}
		}
		full := c.AllGatherInts(local)
		bytes := c.SumInt(ld.Bytes())
		if c.Rank() == 0 {
			distPart, depth, ladderBytes = full, ld.Depth(), float64(bytes)
		}
	})
	if err != nil {
		return err
	}

	// 1 rank: the serial V-cycle and STREAM through the registry adapter.
	var serialAllocs, streamMB float64
	var serialPart, streamPart []int
	_, err = machine.RunStats(context.Background(), machine.IPSC860(1), func(c *machine.Ctx) {
		g := geocol.Build(c, m.NNode, geocol.WithLink(m.E1, m.E2))
		for i := 0; i < reps; i++ {
			serialAllocs = spmdProbe(c, tr, "partition.Multilevel.Partition", func() {
				serialPart = partition.Multilevel{}.Partition(c, g, coldParts)
			})
		}
		for i := 0; i < reps; i++ {
			_, streamMB = allocOf(func() {
				spmdProbe(c, tr, "partition.Streaming.Partition", func() {
					streamPart = partition.Streaming{}.Partition(c, g, coldParts)
				})
			})
		}
	})
	if err != nil {
		return err
	}

	// No machine: the out-of-core pipeline, its decoder and its writer.
	var fileMB float64
	for i := 0; i < reps; i++ {
		var perr error
		_, fileMB = hostProbe(tr, "stream.Partition", func() { _, _, perr = in.streamFile(opCtx{}) })
		if perr != nil {
			return perr
		}
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		var derr error
		hostProbe(tr, "stream.Reader.Next", func() { derr = decodeAll(in.path) })
		if derr != nil {
			return derr
		}
	}
	for i := 0; i < reps; i++ {
		var werr error
		hostProbe(tr, "stream.Copy", func() { werr = in.writeStreamFile() })
		if werr != nil {
			return werr
		}
	}

	cutSerial, _ := recount(m.E1, m.E2, serialPart, coldParts)
	cutDist, _ := recount(m.E1, m.E2, distPart, coldParts)
	cutStream, _ := recount(m.E1, m.E2, streamPart, coldParts)
	l["geocol.build_ms"] = tr.probeMS("geocol.Build")
	l["geocol.build_virtual_s"] = tr.probeVirtualS("geocol.Build")
	l["geocol.ghost_new_ms"] = tr.probeMS("geocol.NewGhostExchange")
	l["geocol.ghost_push_us"] = 1e3 * tr.probeMS("geocol.GhostExchange.PushIntsInto")
	l["geocol.ghost_push_allocs"] = pushAllocs
	l["geocol.build_coarse_ms"] = tr.probeMS("geocol.BuildCoarse")
	l["partition.ml_serial_ms"] = tr.probeMS("partition.Multilevel.Partition")
	l["partition.ml_serial_virtual_s"] = tr.probeVirtualS("partition.Multilevel.Partition")
	l["partition.ml_serial_allocs"] = serialAllocs
	l["partition.cut_ml_serial"] = float64(cutSerial)
	l["partition.ml_dist8_ms"] = tr.probeMS("partition.Multilevel.PartitionLadder")
	l["partition.ml_dist8_virtual_s"] = tr.probeVirtualS("partition.Multilevel.PartitionLadder")
	l["partition.ml_dist8_allocs"] = distAllocs
	l["partition.cut_ml_dist8"] = float64(cutDist)
	l["partition.ml_ladder_depth"] = float64(depth)
	l["partition.ml_ladder_mb"] = ladderBytes / 1e6
	l["partition.stream_ms"] = tr.probeMS("partition.Streaming.Partition")
	l["partition.stream_alloc_mb"] = streamMB
	l["partition.cut_stream"] = float64(cutStream)
	l["partition.stream_cut_ratio"] = float64(cutStream) / float64(cutSerial)
	l["stream.partition_ms"] = tr.probeMS("stream.Partition")
	l["stream.alloc_mb"] = fileMB
	l["stream.decode_mb_s"] = float64(st.Size()) / 1e6 / (tr.probeMS("stream.Reader.Next") / 1e3)
	l["stream.write_ms"] = tr.probeMS("stream.Copy")
	l["mesh.generate_ms"] = tr.fastestMS("mesh.GenerateLattice")
	return nil
}

// decodeAll replays the edge-stream file once through Reader.Next.
func decodeAll(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := stream.NewReader(f)
	if err != nil {
		return err
	}
	var s stream.Slab
	for {
		if err := rd.Next(&s); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		sink.Add(int64(len(s.Adj)))
	}
}
