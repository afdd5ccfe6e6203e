package core

import (
	"fmt"
	"slices"
	"testing"

	"chaos/internal/machine"
	"chaos/internal/mesh"
	"chaos/internal/partition"
	"chaos/internal/xrand"
)

// ringInput fills e1/e2 with an n-vertex ring (edge i: i — i+1 mod n)
// and returns the GeoColInput. Refilling with the same closure bumps
// the lastmod timestamps, which is how the tests model "the mesh may
// have changed".
func ringInput(s *Session, n int) (GeoColInput, *IntArray, *IntArray) {
	e1 := s.NewIntArray("e1", n)
	e2 := s.NewIntArray("e2", n)
	e1.FillByGlobal(func(g int) int { return g })
	e2.FillByGlobal(func(g int) int { return (g + 1) % n })
	return GeoColInput{Link1: e1, Link2: e2}, e1, e2
}

// meshInput loads a generated mesh's edge list into session arrays and
// returns a refill closure that rewires a deterministic fraction of
// the edge endpoints — the adaptation-churn model of the drift tests.
// frac=0 restores the pristine mesh; larger fractions scatter more
// endpoints uniformly, degrading any partition built for the original.
func meshInput(s *Session, m *mesh.Mesh) (GeoColInput, func(frac float64)) {
	ne := m.NEdge()
	e1 := s.NewIntArray("me1", ne)
	e2 := s.NewIntArray("me2", ne)
	fill := func(frac float64) {
		e1.FillByGlobal(func(g int) int { return m.E1[g] })
		e2.FillByGlobal(func(g int) int {
			if frac > 0 && float64(xrand.Hash64(uint64(g))%10000) < frac*10000 {
				t := int(xrand.Hash64(uint64(g)^0x9e3779b97f4a7c15) % uint64(m.NNode))
				if t == m.E1[g] {
					t = (t + 1) % m.NNode
				}
				return t
			}
			return m.E2[g]
		})
	}
	fill(0)
	return GeoColInput{Link1: e1, Link2: e2}, fill
}

// TestRepartitionerModes pins the hit/warm/cold dispatch of the
// Repartitioner handle: unchanged inputs hit the cache, changed inputs
// warm-start off the retained ladder indefinitely while quality holds,
// Invalidate drops everything, and a part-count change can never be
// served warm.
func TestRepartitionerModes(t *testing.T) {
	const n, procs = 512, 4
	// CoarsenTo/ParallelThreshold are lowered so the distributed
	// ladder path (the one with retained state) engages at this size:
	// serial handoff = max(8*16, 64) = 128 < 512.
	spec := partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 16, ParallelThreshold: 64}
	err := machine.Run(machine.IPSC860(procs), func(c *machine.Ctx) {
		s := NewSession(c)
		in, e1, _ := ringInput(s, n)

		rp, err := s.NewRepartitioner(spec)
		if err != nil {
			panic(err)
		}

		m1, err := rp.Map(n, in, procs)
		if err != nil {
			panic(err)
		}
		if st := rp.Stats(); st != (RepartitionerStats{Cold: 1}) {
			t.Errorf("after first Map: stats %+v, want 1 cold", st)
		}

		// Unchanged inputs: the cached mapping comes back untouched.
		m2, err := rp.Map(n, in, procs)
		if err != nil {
			panic(err)
		}
		if m2 != m1 {
			t.Error("unchanged inputs did not return the cached mapping")
		}
		if st := rp.Stats(); st.Hits != 1 {
			t.Errorf("stats %+v, want 1 hit", st)
		}

		// Touched inputs with identical content: the warm path serves
		// every epoch — no counter caps it, and an unchanged cut can
		// never trip the drift guard.
		for i := 0; i < 3; i++ {
			e1.FillByGlobal(func(g int) int { return g })
			if _, err := rp.Map(n, in, procs); err != nil {
				panic(err)
			}
		}
		if st := rp.Stats(); st.Warm != 3 || st.Cold != 1 || st.Recold != 0 {
			t.Errorf("stats %+v, want 3 warm / 1 cold / 0 recold", st)
		}

		// A different part count is never served from cache or ladder.
		m3, err := rp.Map(n, in, procs/2)
		if err != nil {
			panic(err)
		}
		if m3 == m1 {
			t.Error("nparts change returned the cached mapping")
		}
		if st := rp.Stats(); st.Cold != 2 {
			t.Errorf("stats %+v, want cold on nparts change", st)
		}

		// Invalidate forces cold even with unchanged inputs.
		rp.Invalidate()
		if _, err := rp.Map(n, in, procs/2); err != nil {
			panic(err)
		}
		if st := rp.Stats(); st.Cold != 3 {
			t.Errorf("stats %+v, want cold after Invalidate", st)
		}

		// A changed vertex count with untouched inputs is never served
		// from cache — the cached mapping would be wrong-sized.
		mBig, err := rp.Map(2*n, in, procs/2)
		if err != nil {
			panic(err)
		}
		if mBig.Size() != 2*n {
			t.Errorf("mapping size %d after n change, want %d", mBig.Size(), 2*n)
		}
		if st := rp.Stats(); st.Cold != 4 {
			t.Errorf("stats %+v, want cold on vertex-count change", st)
		}

		// The produced mapping must stay a balanced 4-way partition.
		parts := map[int]int{}
		for _, p := range m1.LocalPart() {
			parts[p]++
		}
		for p := range parts {
			if p < 0 || p >= procs {
				t.Errorf("part %d out of range", p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionerDriftRecold pins the quality-guarded warm path at
// escalating churn: gentle adaptation keeps warming, heavy rewiring
// pushes the warm cut past driftTol and forces a cold rebuild in the
// same Map call.
func TestRepartitionerDriftRecold(t *testing.T) {
	const procs = 4
	m := mesh.Generate(2048, 11)
	spec := partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 16,
		ParallelThreshold: 64, Seed: 3}
	err := machine.Run(machine.IPSC860(procs), func(c *machine.Ctx) {
		s := NewSession(c)
		in, fill := meshInput(s, m)

		rp, err := s.NewRepartitioner(spec)
		if err != nil {
			panic(err)
		}
		if _, err := rp.Map(m.NNode, in, procs); err != nil {
			panic(err)
		}
		if st := rp.Stats(); st.Cold != 1 {
			t.Fatalf("stats %+v, want 1 cold", st)
		}

		// Gentle churn (0.5% of endpoints rewired): warm survives.
		fill(0.005)
		if _, err := rp.Map(m.NNode, in, procs); err != nil {
			panic(err)
		}
		if st := rp.Stats(); st.Warm != 1 || st.Recold != 0 {
			t.Errorf("after gentle churn: stats %+v, want 1 warm / 0 recold", st)
		}

		// Heavy churn (half the endpoints rewired): the warm cut
		// degrades far past driftTol and the ladder is rebuilt.
		fill(0.5)
		if _, err := rp.Map(m.NNode, in, procs); err != nil {
			panic(err)
		}
		if st := rp.Stats(); st.Recold != 1 || st.Cold != 2 {
			t.Errorf("after heavy churn: stats %+v, want 1 recold / 2 cold", st)
		}

		// Same heavy mesh re-touched: the rebuilt ladder matches it, so
		// the next epoch warms again.
		fill(0.5)
		if _, err := rp.Map(m.NNode, in, procs); err != nil {
			panic(err)
		}
		if st := rp.Stats(); st.Warm != 2 || st.Recold != 1 {
			t.Errorf("after re-touch: stats %+v, want 2 warm / 1 recold", st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionerNonMultilevel pins that the handle degrades to the
// plain guard for methods without ladder support: unchanged inputs
// return the cached mapping without re-running the partitioner, and
// changed inputs always run cold, never warm.
func TestRepartitionerNonMultilevel(t *testing.T) {
	const n, procs = 128, 4
	err := machine.Run(machine.IPSC860(procs), func(c *machine.Ctx) {
		s := NewSession(c)
		in, e1, _ := ringInput(s, n)
		rp, err := s.NewRepartitioner(partition.Spec{Method: partition.MethodRSB})
		if err != nil {
			panic(err)
		}
		m1, err := rp.Map(n, in, procs)
		if err != nil {
			panic(err)
		}
		tPart := s.Timer(TimerPartition)
		if m2, err := rp.Map(n, in, procs); err != nil || m2 != m1 || s.Timer(TimerPartition) != tPart {
			t.Errorf("unchanged inputs: err %v, cached mapping returned %v, partitioner re-ran %v",
				err, m2 == m1, s.Timer(TimerPartition) != tPart)
		}
		e1.FillByGlobal(func(g int) int { return g })
		if m3, err := rp.Map(n, in, procs); err != nil || m3 == m1 || s.Timer(TimerPartition) <= tPart {
			t.Errorf("written input: err %v, stale mapping returned %v", err, m3 == m1)
		}
		if st := rp.Stats(); st.Warm != 0 || st.Cold != 2 {
			t.Errorf("stats %+v, want 2 cold / 0 warm for RSB", st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionerMatchesSetPartitioning pins that the handle adds
// nothing to a cold run: a cold Repartitioner.Map produces the
// identical mapping Construct + SetPartitioning computes.
func TestRepartitionerMatchesSetPartitioning(t *testing.T) {
	const n, procs = 256, 4
	err := machine.Run(machine.IPSC860(procs), func(c *machine.Ctx) {
		s := NewSession(c)
		in, _, _ := ringInput(s, n)

		spec := partition.Spec{Method: partition.MethodRSB}
		old, err := s.SetPartitioning(s.Construct(n, in), spec, procs)
		if err != nil {
			panic(err)
		}
		rp, err := s.NewRepartitioner(spec)
		if err != nil {
			panic(err)
		}
		nu, err := rp.Map(n, in, procs)
		if err != nil {
			panic(err)
		}
		a, b := old.LocalPart(), nu.LocalPart()
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("partitions differ at local %d: %d vs %d", i, a[i], b[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionerIsSound is the model test of the Repartitioner
// handle, the partition half of the paper's Section 3 reuse guarantee.
// Each seed runs a random sequence of Map calls over a generated mesh,
// interleaved with no change, a light rewire, a heavy rewire, a part
// count change and Invalidate, and checks every call against what the
// model knows was done: a hit returns the previous mapping, and only
// when nothing was written, invalidated or re-counted since; a cold
// result equals, bit for bit, that of a twin handle invalidated before
// every call; a warm result is a valid partition whose cut is at most
// driftTol times the cut of the last accepted build; and every call is
// counted once as a hit, a cold or a warm build.
func TestRepartitionerIsSound(t *testing.T) {
	const procs, seeds, calls = 4, 30, 10
	spec := partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 16, ParallelThreshold: 64, Seed: 3}
	var total RepartitionerStats // rank 0's, summed over the seeds
	for seed := range seeds {
		m := mesh.Generate(512, uint64(seed)+1)
		err := machine.Run(machine.IPSC860(procs), func(c *machine.Ctx) {
			s := NewSession(c)
			in, fill := meshInput(s, m)
			rp, err := s.NewRepartitioner(spec)
			if err != nil {
				panic(err)
			}
			twin, _ := s.NewRepartitioner(spec)
			failed := false
			fail := func(call int, format string, args ...any) {
				if !failed {
					t.Errorf("seed %d rank %d call %d: %s", seed, c.Rank(), call, fmt.Sprintf(format, args...))
				}
				failed = true
			}
			ctl := xrand.New(uint64(seed)) // every rank draws the same program
			var prev *Mapping
			nparts, clean, baseCut := procs, false, 0.0
			for call := range calls {
				switch op := ctl.Intn(5); {
				case call == 0 || op == 0: // no change
				case op == 1:
					fill(0.002 + 0.008*ctl.Float64())
					clean = false
				case op == 2:
					fill(0.3 + 0.2*ctl.Float64())
					clean = false
				case op == 3:
					nparts = procs + procs/2 - nparts // 4 <-> 2
					clean = false
				default:
					rp.Invalidate()
					clean = false
				}
				before := rp.Stats()
				got, err := rp.Map(m.NNode, in, nparts)
				if err != nil {
					panic(err)
				}
				twin.Invalidate()
				want, err := twin.Map(m.NNode, in, nparts)
				if err != nil {
					panic(err)
				}
				after := rp.Stats()
				g := s.Construct(m.NNode, in)
				cut := partition.Cut(c, g, got.part)
				switch {
				case after.Hits > before.Hits:
					if !clean || got != prev {
						fail(call, "hit with clean=%v, previous mapping returned %v", clean, got == prev)
					}
				case clean:
					fail(call, "clean inputs not served from the cache: stats %+v -> %+v", before, after)
				case after.Warm > before.Warm:
					bad := len(got.part) != g.LocalN(c.Rank())
					for _, q := range got.part {
						bad = bad || q < 0 || q >= nparts
					}
					if bad || cut > driftTol*baseCut {
						fail(call, "warm result invalid=%v, cut %v against base %v", bad, cut, baseCut)
					}
				case !slices.Equal(got.part, want.part):
					fail(call, "cold result differs from the always-invalidated twin")
				}
				if n := after.Hits + after.Cold + after.Warm; n != call+1 {
					fail(call, "stats %+v count %d calls, want %d", after, n, call+1)
				}
				prev, clean, baseCut = got, true, cut
			}
			if c.Rank() == 0 {
				st := rp.Stats()
				total.Hits, total.Cold, total.Warm, total.Recold = total.Hits+st.Hits, total.Cold+st.Cold, total.Warm+st.Warm, total.Recold+st.Recold
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total.Hits == 0 || total.Warm == 0 || total.Recold == 0 || total.Cold == total.Recold {
		t.Errorf("the programs never reached every path: %+v", total)
	}
	t.Logf("served over %d seeds: %+v", seeds, total)
}
