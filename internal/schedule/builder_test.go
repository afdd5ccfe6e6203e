package schedule

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/ttable"
)

// TestBuilderRecycledUnderDelays is the ownership rule's proof for the
// inspector: many back-to-back builds through one Builder per rank,
// each recycling the previous reference vectors, one of them rebuilding
// the previous round's schedule in place straight after a ScatterAdd on
// it, with random per-rank stalls so that ranks leave each exchange far
// apart. The first schedule is kept and re-run every round. A
// schedule's send lists are the peers' request arrays, and a scatter
// unpacks through them after its exchange; a Regular resolver puts no
// collective between that unpack and the rebuild's fill of the next
// request lists. A buffer overwritten while a peer still reads it is a
// data race (run under -race) or a wrong gather or sum.
func TestBuilderRecycledUnderDelays(t *testing.T) {
	const n, p, rounds = 64, 4, 150
	stall := func(rng *rand.Rand) {
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
		}
	}
	for _, kind := range []string{"table", "regular"} {
		owner := irregularOwners(n, p)
		if kind == "regular" {
			d := dist.NewBlock(n, p)
			for g := range owner {
				owner[g] = d.Owner(g)
			}
		}
		for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
			cfg := machine.Zero(p)
			cfg.Backend = backend
			err := machine.Run(cfg, func(c *machine.Ctx) {
				mine := ownedBy(owner, c.Rank())
				local := make([]float64, len(mine))
				for l, g := range mine {
					local[l] = 1000 + float64(g)
				}
				// check gathers through the schedule and demands that every
				// reference lands on its global's value, then scatters the
				// ghosts back and demands that every element summed whole
				// copies of its own value.
				check := func(what string, globals, ref []int, s *Schedule) {
					ghost := make([]float64, s.NGhost())
					s.Gather(c, local, ghost)
					buf := append(local[:len(local):len(local)], ghost...)
					for i, g := range globals {
						if buf[ref[i]] != 1000+float64(g) {
							t.Errorf("%v %s rank %d %s: globals[%d]=%d gathered %v", backend, kind, c.Rank(), what, i, g, buf[ref[i]])
							break // keep up with the other ranks' collectives
						}
					}
					sums := make([]float64, len(local))
					s.ScatterAdd(c, sums, ghost)
					for l, g := range mine {
						if math.Mod(sums[l], 1000+float64(g)) != 0 {
							t.Errorf("%v %s rank %d %s: global %d summed to %v", backend, kind, c.Rank(), what, g, sums[l])
							break
						}
					}
				}
				var res ttable.Resolver = ttable.Regular{D: dist.NewBlock(n, p)}
				if kind == "table" {
					res = ttable.Build(c, n, mine)
				}
				rng := rand.New(rand.NewSource(int64(c.Rank())))
				firstGlobals := referenceList(rng, owner, mine, c.Rank())
				first, firstRef := BuildGather(c, res, len(local), firstGlobals, Options{})

				var b Builder
				var ref []int
				more := referenceList(rng, owner, mine, c.Rank())
				re, reRef := b.BuildGather(c, res, len(local), more, Options{}, nil, nil)
				for round := 0; round < rounds; round++ {
					globals := referenceList(rng, owner, mine, c.Rank())
					stall(rng)
					var s *Schedule
					s, ref = b.BuildGather(c, res, len(local), globals, Options{}, nil, ref)
					stall(rng)
					check("build", globals, ref, s)
					check("first", firstGlobals, firstRef, first)
					check("rebuild", more, reRef, re)
					more = referenceList(rng, owner, mine, c.Rank())
					re, reRef = b.BuildGather(c, res, len(local), more, Options{}, re, reRef)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkHotBuildGather is one schedule build of an Euler inspection
// on the paper's 10K mesh over 8 ranks: every rank builds the gather
// schedule of the far endpoints of the edges whose near endpoint it
// owns, through one recycled Builder, rebuilding its previous schedule
// and reference vector in place. Steady state allocates nothing on the
// Simulated backend.
func BenchmarkHotBuildGather(b *testing.B) {
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
		var bld Builder
		s, ref := bld.BuildGather(c, tab, len(mine), refs, Options{}, nil, nil)
		s, ref = bld.BuildGather(c, tab, len(mine), refs, Options{}, s, ref) // the second request slab
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier() // nobody allocates ahead of the reset
		for i := 0; i < b.N; i++ {
			s, ref = bld.BuildGather(c, tab, len(mine), refs, Options{}, s, ref)
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
