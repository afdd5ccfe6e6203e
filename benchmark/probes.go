package main

import (
	"context"
	"runtime"
	"sync/atomic"

	"chaos/internal/machine"
)

// sink keeps probe results alive, so calls are not optimised away and
// exchanged payloads count as consumed. Every rank of a probe adds to
// it, hence atomic.
var sink atomic.Int64

// syncNow is the benchmark's SPMD clock: a max-reduction of every
// rank's arrival time, so all ranks learn when the last of them got
// here — the moment everything before the call was globally complete.
// Rank 0's own clock would not do: with 8 ranks on 2 cores it may be
// descheduled while the others finish, or run last and see no wait at
// all. It synchronises like a barrier. Collective.
func syncNow(c *machine.Ctx) int64 { return int64(c.MaxInt(int(nowNS()))) }

// spmdProbe runs f on every rank and records it as a probe span called
// name, from the moment the last rank was ready to the moment the last rank
// was done; the virtual time is rank 0's clock when its own f returned.
// It returns the heap objects the whole machine allocated meanwhile
// (meaningful on rank 0 only). tr is nil on every rank but 0.
// Collective.
func spmdProbe(c *machine.Ctx, tr *tracer, name string, f func()) (mallocs float64) {
	root := c.Rank() == 0
	var m0, m1 runtime.MemStats
	c.Barrier()
	if root {
		runtime.ReadMemStats(&m0)
	}
	t0, v0 := syncNow(c), c.Clock()
	f()
	v1 := c.Clock()
	t1 := syncNow(c)
	tr.add(span{Name: probePrefix + name, StartNS: t0, EndNS: t1, VirtualStart: v0, VirtualEnd: v1})
	if root {
		runtime.ReadMemStats(&m1)
	}
	return float64(m1.Mallocs - m0.Mallocs)
}

// hostProbe is spmdProbe for a call made outside any machine.
func hostProbe(tr *tracer, name string, f func()) (mallocs, mb float64) {
	var id int
	mallocs, mb = allocOf(func() {
		id = tr.begin(0, 0, "", probePrefix+name, 0)
		f()
		tr.end(id, 0)
	})
	return mallocs, mb
}

// machineProbes times the transport every SPMD kind sits on: spawning
// an 8-rank machine, a barrier, and a 4 kB-per-peer all-to-all. It
// reads no workload input, so it runs on every workload's traced run.
func machineProbes(layers map[string]float64) {
	const procs, reps = 8, 200
	tr := newTracer("")
	for i := 0; i < 5; i++ {
		hostProbe(tr, "machine.RunStats", func() {
			if _, err := machine.RunStats(context.Background(), machine.IPSC860(procs), func(*machine.Ctx) {}); err != nil {
				panic(err)
			}
		})
	}
	var allocs float64
	_, err := machine.RunStats(context.Background(), machine.IPSC860(procs), func(c *machine.Ctx) {
		var rtr *tracer
		if c.Rank() == 0 {
			rtr = tr
		}
		out := make([][]int, procs)
		for r := range out {
			out[r] = make([]int, 512) // 4 kB per peer
		}
		for i := 0; i < reps; i++ {
			spmdProbe(c, rtr, "machine.Ctx.Barrier", c.Barrier)
		}
		for i := 0; i < reps; i++ {
			a := spmdProbe(c, rtr, "machine.Ctx.AlltoAllInts", func() { sink.Add(int64(len(c.AlltoAllInts(out)))) })
			if c.Rank() == 0 {
				allocs = a
			}
		}
	})
	if err != nil {
		panic(err)
	}
	layers["machine.spawn_ms"] = tr.probeMS("machine.RunStats")
	layers["machine.barrier_us"] = 1e3 * tr.probeMS("machine.Ctx.Barrier")
	layers["machine.alltoall_us_4k"] = 1e3 * tr.probeMS("machine.Ctx.AlltoAllInts")
	layers["machine.alltoall_allocs"] = allocs
}
