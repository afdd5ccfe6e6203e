package schedule

import (
	"testing"

	"chaos/internal/machine"
)

func TestIncrementalFetchesOnlyNewElements(t *testing.T) {
	const n, p = 40, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		// Base: each rank reads the first element of the next rank.
		next := (c.Rank() + 1) % p
		baseGlobals := []int{d.Lo(next)}
		base, baseRef := BuildGather(c, res, len(local), baseGlobals, Options{})
		baseGhost := make([]float64, base.NGhost())
		base.Gather(c, local, baseGhost)

		// Incremental: the old reference plus two new ones.
		globals := []int{d.Lo(next), d.Lo(next) + 1, (d.Lo(next) + d.LocalSize(next)) % n}
		inc, ref := BuildIncremental(c, res, len(local), base, globals, Options{})

		// The covered reference reuses the base slot.
		if ref[0] != baseRef[0] {
			t.Errorf("covered ref got slot %d, want base slot %d", ref[0], baseRef[0])
		}
		// Only genuinely new elements occupy incremental slots.
		if inc.NGhost() > 2 {
			t.Errorf("incremental NGhost = %d, want <= 2", inc.NGhost())
		}
		incGhost := make([]float64, inc.NGhost())
		inc.Gather(c, local, incGhost)

		// Combined addressing resolves every reference.
		value := func(r int) float64 {
			switch {
			case r < len(local):
				return local[r]
			case r < len(local)+base.NGhost():
				return baseGhost[r-len(local)]
			default:
				return incGhost[r-len(local)-base.NGhost()]
			}
		}
		for i, g := range globals {
			if got := value(ref[i]); got != 1000+float64(g) {
				t.Errorf("rank %d: globals[%d]=%d got %v", c.Rank(), i, g, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalNoNewReferences(t *testing.T) {
	const n, p = 20, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		g0 := d.Lo((c.Rank() + 1) % p)
		base, _ := BuildGather(c, res, len(local), []int{g0}, Options{})
		inc, ref := BuildIncremental(c, res, len(local), base, []int{g0, g0}, Options{})
		if inc.NGhost() != 0 {
			t.Errorf("fully covered incremental built %d ghosts", inc.NGhost())
		}
		if ref[0] != len(local) || ref[1] != len(local) {
			t.Errorf("refs %v should point at base slot 0", ref)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalLocalReferences(t *testing.T) {
	const n, p = 16, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		base, _ := BuildGather(c, res, len(local), nil, Options{})
		mine := d.Lo(c.Rank())
		inc, ref := BuildIncremental(c, res, len(local), base, []int{mine}, Options{})
		if inc.NGhost() != 0 {
			t.Errorf("local ref created ghosts")
		}
		if ref[0] != 0 {
			t.Errorf("local ref = %d, want 0", ref[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGhostGlobalsTracksSlots(t *testing.T) {
	const n, p = 24, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		next := (c.Rank() + 1) % p
		globals := []int{d.Lo(next), d.Lo(next) + 1, d.Lo(next)}
		s, ref := BuildGather(c, res, len(local), globals, Options{})
		gg := s.GhostGlobals()
		if len(gg) != s.NGhost() {
			t.Fatalf("GhostGlobals length %d != NGhost %d", len(gg), s.NGhost())
		}
		for i, g := range globals {
			slot := ref[i] - len(local)
			if gg[slot] != g {
				t.Errorf("slot %d mirrors %d, want %d", slot, gg[slot], g)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An incremental build over a merged base must see both halves' ghosts:
// Merge once dropped the ghost→global map, and the incremental schedule
// silently re-fetched every reference.
func TestIncrementalOverMergedBase(t *testing.T) {
	const n, p = 40, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		res, local, d := blockData(c, n)
		next := (c.Rank() + 1) % p
		g0 := d.Lo(next)
		a, _ := BuildGather(c, res, len(local), []int{g0}, Options{})
		b, _ := BuildGather(c, res, len(local), []int{g0 + 1, g0 + 2}, Options{})
		base := Merge(a, b)
		if gg := base.GhostGlobals(); len(gg) != base.NGhost() || gg[0] != g0 || gg[1] != g0+1 || gg[2] != g0+2 {
			t.Fatalf("merged GhostGlobals = %v, want [%d %d %d]", gg, g0, g0+1, g0+2)
		}
		baseGhost := make([]float64, base.NGhost())
		base.Gather(c, local, baseGhost)

		// Three covered references (one from each half, one repeated)
		// and one the base does not mirror.
		globals := []int{g0 + 2, g0, g0 + 3, g0 + 2}
		inc, ref := BuildIncremental(c, res, len(local), base, globals, Options{})
		if inc.NGhost() != 1 || inc.GhostGlobals()[0] != g0+3 {
			t.Errorf("incremental fetches %v, want only [%d]", inc.GhostGlobals(), g0+3)
		}
		incGhost := make([]float64, inc.NGhost())
		inc.Gather(c, local, incGhost)
		buf := append(append(append([]float64(nil), local...), baseGhost...), incGhost...)
		for i, g := range globals {
			if got := buf[ref[i]]; got != 1000+float64(g) {
				t.Errorf("rank %d: globals[%d]=%d got %v", c.Rank(), i, g, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
