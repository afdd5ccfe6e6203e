package schedule

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/ttable"
)

// buildBlockFixture returns a BLOCK-distributed array of size n whose
// global element g holds value 1000+g, plus its resolver.
func blockData(c *machine.Ctx, n int) (ttable.Resolver, []float64, dist.BlockDist) {
	d := dist.NewBlock(n, c.Procs())
	local := make([]float64, d.LocalSize(c.Rank()))
	for l := range local {
		local[l] = 1000 + float64(d.Lo(c.Rank())+l)
	}
	return ttable.Regular{D: d}, local, d
}

func TestGatherFetchesCorrectValues(t *testing.T) {
	const n, p = 40, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		// Each rank references a mix of local and remote globals.
		rng := rand.New(rand.NewSource(int64(7))) // same on all ranks is fine
		globals := make([]int, 25)
		for i := range globals {
			globals[i] = rng.Intn(n)
		}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		ghost := make([]float64, s.NGhost())
		s.Gather(c, local, ghost)
		for i, g := range globals {
			var got float64
			if ref[i] < len(local) {
				if d.Owner(g) != c.Rank() {
					t.Errorf("ref %d marked local but owner is %d", i, d.Owner(g))
				}
				got = local[ref[i]]
			} else {
				got = ghost[ref[i]-len(local)]
			}
			if got != 1000+float64(g) {
				t.Errorf("rank %d: globals[%d]=%d resolved to %v", c.Rank(), i, g, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDedupCollapsesDuplicates(t *testing.T) {
	const n, p = 16, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		// Reference one fixed remote global 10 times.
		remote := (d.Hi(c.Rank()) + 1) % n // someone else's element
		if d.Owner(remote) == c.Rank() {
			remote = (remote + d.LocalSize(c.Rank())) % n
		}
		globals := make([]int, 10)
		for i := range globals {
			globals[i] = remote
		}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		if s.NGhost() != 1 {
			t.Errorf("rank %d: NGhost = %d, want 1", c.Rank(), s.NGhost())
		}
		for i := 1; i < len(ref); i++ {
			if ref[i] != ref[0] {
				t.Errorf("duplicate refs map to different slots")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllLocalReferencesNeedNoComm(t *testing.T) {
	const n, p = 20, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		var globals []int
		for l := 0; l < len(local); l++ {
			globals = append(globals, d.Lo(c.Rank())+l)
		}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		if s.NGhost() != 0 || s.SendCount() != 0 {
			t.Errorf("local-only loop built nontrivial schedule: ghosts=%d sends=%d",
				s.NGhost(), s.SendCount())
		}
		for i, r := range ref {
			if r != d.Local(globals[i]) {
				t.Errorf("ref[%d] = %d", i, r)
			}
		}
		s.Gather(c, local, nil) // zero-length ghost is legal
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterAddAccumulatesAcrossRanks(t *testing.T) {
	const n, p = 8, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		for l := range local {
			local[l] = 0
		}
		// Every rank contributes rank+1 to global 3 and to one local element.
		globals := []int{3}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		work := make([]float64, len(local)+s.NGhost())
		// Accumulate into the reference slot.
		work[ref[0]] += float64(c.Rank() + 1)
		// Split work buffer back into local and ghost halves.
		for l := range local {
			local[l] += work[l]
		}
		s.ScatterAdd(c, local, work[len(local):])
		c.Barrier()
		if d.Owner(3) == c.Rank() {
			want := float64(1 + 2 + 3 + 4) // sum over ranks of rank+1
			if got := local[d.Local(3)]; got != want {
				t.Errorf("accumulated %v, want %v", got, want)
			}
		} else {
			for l, v := range local {
				if v != 0 {
					t.Errorf("rank %d local[%d] = %v, want 0", c.Rank(), l, v)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterOpMax(t *testing.T) {
	const n, p = 6, 3
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		for l := range local {
			local[l] = -1
		}
		globals := []int{0}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		ghost := make([]float64, s.NGhost())
		contrib := float64(10 * (c.Rank() + 1))
		if ref[0] < len(local) {
			if contrib > local[ref[0]] {
				local[ref[0]] = contrib
			}
		} else {
			ghost[ref[0]-len(local)] = contrib
		}
		s.ScatterOp(c, local, ghost, func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		if d.Owner(0) == c.Rank() {
			if got := local[d.Local(0)]; got != 30 {
				t.Errorf("max-reduce got %v, want 30", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterOverwrite(t *testing.T) {
	const n, p = 4, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		// Rank 1 overwrites global 0 (owned by rank 0).
		var globals []int
		if c.Rank() == 1 {
			globals = []int{0}
		}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		ghost := make([]float64, s.NGhost())
		if c.Rank() == 1 {
			ghost[ref[0]-len(local)] = 777
		}
		s.ScatterOp(c, local, ghost, func(_, contrib float64) float64 { return contrib })
		if c.Rank() == 0 {
			if local[d.Local(0)] != 777 {
				t.Errorf("overwrite scatter got %v", local[d.Local(0)])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherWithIrregularDistribution(t *testing.T) {
	const n, p = 30, 3
	owner := make([]int, n)
	rng := rand.New(rand.NewSource(5))
	for g := range owner {
		owner[g] = rng.Intn(p)
	}
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		var mine []int
		for g, o := range owner {
			if o == c.Rank() {
				mine = append(mine, g)
			}
		}
		tab := ttable.Build(c, n, mine)
		local := make([]float64, len(mine))
		for l, g := range mine {
			local[l] = float64(100 + g)
		}
		// All ranks read all globals.
		globals := make([]int, n)
		for i := range globals {
			globals[i] = i
		}
		s, refs := BuildGather(c, tab, len(local), globals, Options{})
		ghost := make([]float64, s.NGhost())
		s.Gather(c, local, ghost)
		for i, g := range globals {
			var got float64
			if refs[i] < len(local) {
				got = local[refs[i]]
			} else {
				got = ghost[refs[i]-len(local)]
			}
			if got != float64(100+g) {
				t.Errorf("rank %d: g=%d got %v (owner %d)", c.Rank(), g, got, owner[g])
			}
		}
		// Ghost count: everything not owned locally, deduplicated.
		if s.NGhost() != n-len(mine) {
			t.Errorf("NGhost = %d, want %d", s.NGhost(), n-len(mine))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesAndCounts(t *testing.T) {
	const n, p = 40, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		// Read one element from every other rank.
		var globals []int
		for r := 0; r < p; r++ {
			if r != c.Rank() {
				globals = append(globals, d.Lo(r))
			}
		}
		s, _ := BuildGather(c, res, len(local), globals, Options{})
		ns, nr := s.Messages()
		if ns != p-1 || nr != p-1 {
			t.Errorf("Messages = (%d,%d), want (%d,%d)", ns, nr, p-1, p-1)
		}
		if recvCount(s) != p-1 || s.NGhost() != p-1 {
			t.Errorf("recvCount=%d NGhost=%d", recvCount(s), s.NGhost())
		}
		if s.SendCount() != p-1 { // everyone fetches my Lo element
			t.Errorf("SendCount=%d", s.SendCount())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ghostGlobals derives a schedule's ghost slot → global map from what
// BuildGather was given and returned: reference i lands in ghost slot
// ref[i]-localSize when ref[i] >= localSize. It reports a reference
// past the ghost buffer, a slot two different globals land in, and a
// slot no reference lands in.
func ghostGlobals(t *testing.T, globals, ref []int, localSize, nGhost int) []int {
	t.Helper()
	gg := make([]int, nGhost)
	for slot := range gg {
		gg[slot] = -1
	}
	for i, g := range globals {
		slot := ref[i] - localSize
		switch {
		case slot < 0:
			continue
		case slot >= nGhost:
			t.Errorf("globals[%d]=%d referenced as slot %d of %d", i, g, slot, nGhost)
		case gg[slot] >= 0 && gg[slot] != g:
			t.Errorf("slot %d mirrors both %d and %d", slot, gg[slot], g)
		default:
			gg[slot] = g
		}
	}
	for slot, g := range gg {
		if g < 0 {
			t.Errorf("ghost slot %d of %d mirrors no reference", slot, nGhost)
		}
	}
	return gg
}

func TestGhostGlobalsTracksSlots(t *testing.T) {
	const n, p = 24, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		next := (c.Rank() + 1) % p
		globals := []int{d.Lo(next), d.Lo(next) + 1, d.Lo(next)}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		if s.NGhost() != 2 {
			t.Errorf("NGhost %d, want 2", s.NGhost())
		}
		gg := ghostGlobals(t, globals, ref, len(local), s.NGhost())
		ghost := make([]float64, s.NGhost())
		s.Gather(c, local, ghost)
		for slot, v := range ghost {
			if v != 1000+float64(gg[slot]) {
				t.Errorf("slot %d gathered %v, want the value of %d", slot, v, gg[slot])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherPanicsOnWrongGhostLength(t *testing.T) {
	const n, p = 8, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		globals := []int{d.Lo((c.Rank() + 1) % p)}
		s, _ := BuildGather(c, res, len(local), globals, Options{})
		s.Gather(c, local, make([]float64, s.NGhost()+3))
	})
	if err == nil {
		t.Fatal("expected panic on wrong ghost length")
	}
}

func TestScheduleChargesVirtualTime(t *testing.T) {
	const n, p = 64, 4
	st, err := machine.RunStats(context.Background(), machine.IPSC860(p), func(c *machine.Ctx) {
		res, local, _ := blockData(c, n)
		globals := make([]int, 32)
		for i := range globals {
			globals[i] = (i * 7) % n
		}
		s, _ := BuildGather(c, res, len(local), globals, Options{})
		ghost := make([]float64, s.NGhost())
		s.Gather(c, local, ghost)
		s.ScatterAdd(c, local, ghost)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxClock <= 0 {
		t.Fatal("schedule operations charged no time")
	}
}

func TestBuildGatherQuickProperty(t *testing.T) {
	f := func(seed uint64, rawN, rawP uint8, rawRefs []uint8) bool {
		n := int(rawN)%50 + 2
		p := int(rawP)%6 + 1
		refs := make([]int, len(rawRefs))
		for i, r := range rawRefs {
			refs[i] = int(r) % n
		}
		ok := true
		err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
			d := dist.NewBlock(n, p)
			local := make([]float64, d.LocalSize(c.Rank()))
			for l := range local {
				local[l] = float64(7 * (d.Lo(c.Rank()) + l))
			}
			s, ref := BuildGather(c, ttable.Regular{D: d}, len(local), refs, Options{})
			ghost := make([]float64, s.NGhost())
			s.Gather(c, local, ghost)
			for i, g := range refs {
				var got float64
				if ref[i] < len(local) {
					got = local[ref[i]]
				} else {
					got = ghost[ref[i]-len(local)]
				}
				if got != float64(7*g) {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
