package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/ttable"
)

// The pack → all-to-all → unpack bodies of Gather and ScatterOp this
// package shipped before they became one (move), kept verbatim —
// receivers turned into first arguments, RecvCount into recvCount — as
// the oracles of the differential test below.

// recvCount is the number of ghost values s receives per Gather.
func recvCount(s *Schedule) int {
	n := 0
	for _, l := range s.recvGhost {
		n += len(l)
	}
	return n
}

func referenceGather(s *Schedule, c *machine.Ctx, local, ghost []float64) {
	if len(ghost) != s.nGhost {
		panic(fmt.Sprintf("schedule: ghost buffer length %d, want %d", len(ghost), s.nGhost))
	}
	out := make([][]float64, s.procs)
	for p, lst := range s.sendLocal {
		if len(lst) == 0 {
			continue
		}
		buf := make([]float64, len(lst))
		for i, l := range lst {
			buf[i] = local[l]
		}
		out[p] = buf
	}
	c.Words(s.SendCount())
	in := c.ExchangeFloats(out, nil) // out is built here and never written again
	for p, slots := range s.recvGhost {
		vals := in[p]
		if len(vals) != len(slots) {
			panic(fmt.Sprintf("schedule: gather from %d delivered %d values, want %d", p, len(vals), len(slots)))
		}
		for i, slot := range slots {
			ghost[slot] = vals[i]
		}
	}
	c.Words(recvCount(s))
}

func referenceScatterOp(s *Schedule, c *machine.Ctx, local, ghost []float64, op func(owned, contrib float64) float64) {
	if len(ghost) != s.nGhost {
		panic(fmt.Sprintf("schedule: ghost buffer length %d, want %d", len(ghost), s.nGhost))
	}
	out := make([][]float64, s.procs)
	for p, slots := range s.recvGhost {
		if len(slots) == 0 {
			continue
		}
		buf := make([]float64, len(slots))
		for i, slot := range slots {
			buf[i] = ghost[slot]
		}
		out[p] = buf
	}
	c.Words(recvCount(s))
	in := c.ExchangeFloats(out, nil) // out is built here and never written again
	for p, lst := range s.sendLocal {
		vals := in[p]
		if len(vals) != len(lst) {
			panic(fmt.Sprintf("schedule: scatter from %d delivered %d values, want %d", p, len(vals), len(lst)))
		}
		for i, l := range lst {
			local[l] = op(local[l], vals[i])
		}
	}
	c.Flops(s.SendCount())
	c.Words(s.SendCount())
}

// clockConfigs are the machines the differential tests run on: the
// calibrated iPSC/860, whose clocks must agree to the last bit, and
// three in which a single unit cost is 1 and everything else 0, so
// that a rank's clock *is* its count of messages sent, messages
// received, or payload bytes moved.
func clockConfigs(p int) map[string]machine.Config {
	sends, recvs, bytes := machine.Zero(p), machine.Zero(p), machine.Zero(p)
	sends.SendOverhead, recvs.RecvOverhead, bytes.ByteTime = 1, 1, 1
	return map[string]machine.Config{"ipsc860": machine.IPSC860(p), "sends": sends, "recvs": recvs, "bytes": bytes}
}

// moveTrace is what one rank saw over a run of data movements: a copy
// of every buffer and the rank's clock after every call.
type moveTrace struct {
	floats [][]float64
	clocks []float64
}

func (tr *moveTrace) add(c *machine.Ctx, floats []float64) {
	tr.floats = append(tr.floats, slices.Clone(floats))
	tr.clocks = append(tr.clocks, c.Clock())
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// diff names the first difference between two traces, or "".
func (tr *moveTrace) diff(want *moveTrace) string {
	if len(tr.clocks) != len(want.clocks) {
		return fmt.Sprintf("%d calls traced, reference %d", len(tr.clocks), len(want.clocks))
	}
	for i := range want.clocks {
		switch {
		case !sameBits(tr.floats[i], want.floats[i]):
			return fmt.Sprintf("call %d: floats %v, reference %v", i, tr.floats[i], want.floats[i])
		case tr.clocks[i] != want.clocks[i]:
			return fmt.Sprintf("call %d: clock %v, reference %v", i, tr.clocks[i], want.clocks[i])
		}
	}
	return ""
}

// TestTransportMatchesReference drives every Gather and Scatter form
// and the reference bodies through the same schedules — random
// reference lists over an irregular distribution, empty ranks and
// fewer elements than ranks included, every form several times back to
// back on one schedule — and demands bit-identical buffers and per-rank
// clocks after every call, on both backends and on the counting
// machines (messages and bytes).
func TestTransportMatchesReference(t *testing.T) {
	maxOp := func(a, b float64) float64 { return math.Max(a, b) }
	overwrite := func(_, contrib float64) float64 { return contrib }
	for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
		for _, sz := range []struct{ n, p int }{{61, 1}, {61, 3}, {5, 8}, {97, 8}} {
			n, p := sz.n, sz.p
			owner := irregularOwners(n, p)
			for name, cfg := range clockConfigs(p) {
				cfg.Backend = backend
				run := func(reference bool) []moveTrace {
					traces := make([]moveTrace, p)
					err := machine.Run(cfg, func(c *machine.Ctx) {
						mine := ownedBy(owner, c.Rank())
						tab := ttable.Build(c, n, mine)
						rng := rand.New(rand.NewSource(int64(77*p + c.Rank())))
						s, _ := BuildGather(c, tab, len(mine), referenceList(rng, owner, mine, c.Rank()), Options{})
						tr := &traces[c.Rank()]
						local := make([]float64, len(mine))
						for l, g := range mine {
							local[l] = rng.NormFloat64() * math.Pow(10, float64(g%7))
						}
						ghost := make([]float64, s.NGhost())
						for round := 0; round < 3; round++ {
							if reference {
								referenceGather(s, c, local, ghost)
								tr.add(c, ghost)
								referenceScatterOp(s, c, local, ghost, addFloat)
								tr.add(c, local)
								referenceScatterOp(s, c, local, ghost, maxOp)
								tr.add(c, local)
								referenceScatterOp(s, c, local, ghost, overwrite)
								tr.add(c, local)
							} else {
								s.Gather(c, local, ghost)
								tr.add(c, ghost)
								s.ScatterAdd(c, local, ghost)
								tr.add(c, local)
								s.ScatterOp(c, local, ghost, maxOp)
								tr.add(c, local)
								s.ScatterOp(c, local, ghost, overwrite)
								tr.add(c, local)
							}
						}
					})
					if err != nil {
						t.Fatalf("%v N=%d P=%d %s reference=%v: %v", backend, n, p, name, reference, err)
					}
					return traces
				}
				want, got := run(true), run(false)
				for r := range want {
					if d := got[r].diff(&want[r]); d != "" {
						t.Errorf("%v N=%d P=%d %s rank %d: %s", backend, n, p, name, r, d)
					}
				}
			}
		}
	}
}

// TestTransportPanicsSurvive pins the check the reference bodies made
// and the one body still makes: a ghost buffer of the wrong length in
// either direction.
func TestTransportPanicsSurvive(t *testing.T) {
	calls := map[string]func(s *Schedule, c *machine.Ctx){
		"Gather":     func(s *Schedule, c *machine.Ctx) { s.Gather(c, make([]float64, 4), make([]float64, s.NGhost()+1)) },
		"ScatterAdd": func(s *Schedule, c *machine.Ctx) { s.ScatterAdd(c, make([]float64, 4), make([]float64, s.NGhost()+1)) },
	}
	for name, call := range calls {
		err := machine.Run(machine.Zero(2), func(c *machine.Ctx) {
			s, _ := BuildGather(c, ttable.Regular{D: dist.NewBlock(8, 2)}, 4, []int{1, 6}, Options{})
			call(s, c)
		})
		if err == nil {
			t.Errorf("%s: no panic", name)
		}
	}
}

// TestTransportOwnershipUnderDelays is the ownership rule's proof for
// the schedule-owned send rows: every form back to back on one
// schedule — the shape benchmark/euler.go's probes use — on two
// schedules, with random per-rank stalls so that ranks leave each
// exchange far apart; then one schedule moved in both directions
// within a step, as core.Loop moves a schedule that a read group and a
// write group share. A slab overwritten while a peer still reads it
// is a data race (run under -race) or a wrong value here.
func TestTransportOwnershipUnderDelays(t *testing.T) {
	const n, p, rounds = 64, 4, 40
	owner := irregularOwners(n, p)
	stall := func(rng *rand.Rand) {
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
		}
	}
	for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
		cfg := machine.Zero(p)
		cfg.Backend = backend
		err := machine.Run(cfg, func(c *machine.Ctx) {
			mine := ownedBy(owner, c.Rank())
			tab := ttable.Build(c, n, mine)
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			ga, gb := referenceList(rng, owner, mine, c.Rank()), referenceList(rng, owner, mine, c.Rank())
			a, refA := BuildGather(c, tab, len(mine), ga, Options{})
			b, refB := BuildGather(c, tab, len(mine), gb, Options{})
			// value is what global g holds in round r.
			value := func(g, r int) float64 { return float64(1000*r + 10*g) }
			// A rank reports its first failure only, and keeps up with
			// the other ranks' collectives.
			failed := false
			fail := func(format string, args ...any) {
				if !failed {
					t.Errorf("%v rank %d: %s", backend, c.Rank(), fmt.Sprintf(format, args...))
				}
				failed = true
			}
			for round := 0; round < rounds; round++ {
				local := make([]float64, len(mine))
				for l, g := range mine {
					local[l] = value(g, round)
				}
				for _, sc := range []struct {
					s       *Schedule
					globals []int
					ref     []int
				}{{a, ga, refA}, {b, gb, refB}} {
					s := sc.s
					ghost := make([]float64, s.NGhost())
					sums := make([]float64, len(local))
					for rep := 0; rep < 3; rep++ { // back to back, no collective between
						stall(rng)
						s.Gather(c, local, ghost)
						stall(rng)
						s.ScatterAdd(c, sums, ghost)
					}
					for i, g := range sc.globals {
						if slot := sc.ref[i] - len(mine); slot >= 0 && ghost[slot] != value(g, round) {
							fail("round %d: global %d gathered %v", round, g, ghost[slot])
						}
					}
					// Every ghost copy came back three times: the sums are
					// whole multiples of the owned values.
					for l, g := range mine {
						if v := value(g, round); v != 0 && math.Mod(sums[l], 3*v) != 0 {
							fail("round %d: global %d summed to %v, not a multiple of %v", round, g, sums[l], 3*v)
						}
					}
				}
			}

			// A schedule shared by groups of one loop: a Gather and a
			// ScatterOp every step, or (two read groups, one write group)
			// Gather, ScatterOp, Gather, each group with a buffer of its
			// own and nothing but the stalls between the moves.
			for _, moves := range []int{2, 3} {
				s, ref := BuildGather(c, tab, len(mine), ga, Options{})
				local, sums := make([]float64, len(mine)), make([]float64, len(mine))
				ghosts := [][]float64{make([]float64, s.NGhost()), make([]float64, s.NGhost()), make([]float64, s.NGhost())}
				for step := 0; step < rounds; step++ {
					for l, g := range mine {
						local[l] = value(g, step)
					}
					clear(sums)
					for mv := 0; mv < moves; mv++ {
						stall(rng)
						if mv == 1 {
							copy(ghosts[1], ghosts[0])
							s.ScatterOp(c, sums, ghosts[1], addFloat)
							continue
						}
						s.Gather(c, local, ghosts[mv])
						for i, g := range ga {
							if slot := ref[i] - len(mine); slot >= 0 && ghosts[mv][slot] != value(g, step) {
								fail("shared schedule, %d moves, step %d: global %d gathered %v", moves, step, g, ghosts[mv][slot])
							}
						}
					}
					for l, g := range mine {
						if v := value(g, step); v != 0 && math.Mod(sums[l], v) != 0 {
							fail("shared schedule, %d moves, step %d: global %d summed to %v, not a multiple of %v", moves, step, g, sums[l], v)
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkHotGatherScatter is the transport of one Euler executor
// step on the paper's 10K mesh over 8 ranks: one Gather and one
// ScatterAdd through the schedule of the edges' far endpoints, out of
// the schedule's own slabs.
func BenchmarkHotGatherScatter(b *testing.B) {
	m := mesh.Generate(10000, 1993)
	const p = 8
	owner := m.Slabs(p)
	b.ReportAllocs()
	err := machine.Run(machine.IPSC860(p), func(c *machine.Ctx) {
		mine := ownedBy(owner, c.Rank())
		tab := ttable.Build(c, m.NNode, mine)
		var refs []int
		for e, v := range m.E1 {
			if owner[v] == c.Rank() {
				refs = append(refs, m.E2[e])
			}
		}
		s, _ := BuildGather(c, tab, len(mine), refs, Options{})
		local, ghost := make([]float64, len(mine)), make([]float64, s.NGhost())
		for i := 0; i < 2; i++ { // both slabs
			s.Gather(c, local, ghost)
			s.ScatterAdd(c, local, ghost)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier() // nobody allocates ahead of the reset
		for i := 0; i < b.N; i++ {
			s.Gather(c, local, ghost)
			s.ScatterAdd(c, local, ghost)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
