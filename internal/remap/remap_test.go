package remap

import (
	"strings"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/xrand"
)

func TestRemapBlockToIrregular(t *testing.T) {
	const n, p = 40, 4
	// Random new ownership, identical on all ranks.
	newOwnerOf := make([]int, n)
	rng := xrand.New(11)
	for g := range newOwnerOf {
		newOwnerOf[g] = rng.Intn(p)
	}
	// The oracle: each rank's count of globals and each global's
	// position among its new owner's globals in ascending order.
	count := make([]int, p)
	local := make([]int, n)
	for g, o := range newOwnerOf {
		local[g] = count[o]
		count[o]++
	}
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		b := dist.NewBlock(n, c.Procs())
		lo, hi := b.Lo(c.Rank()), b.Hi(c.Rank())
		myGlobals := make([]int, hi-lo)
		data := make([]float64, hi-lo)
		idata := make([]int, hi-lo)
		dest := make([]int, hi-lo)
		for l := range myGlobals {
			g := lo + l
			myGlobals[l] = g
			data[l] = float64(10 * g)
			idata[l] = 3 * g
			dest[l] = newOwnerOf[g]
		}
		pl := Build(c, myGlobals, dest)
		if len(pl.NewGlobals()) != count[c.Rank()] {
			t.Errorf("rank %d owns %d after the move, want %d", c.Rank(), len(pl.NewGlobals()), count[c.Rank()])
		}
		ng := pl.NewGlobals()
		for i, g := range ng {
			if newOwnerOf[g] != c.Rank() {
				t.Errorf("rank %d received global %d owned by %d", c.Rank(), g, newOwnerOf[g])
			}
			if i > 0 && ng[i] <= ng[i-1] {
				t.Error("NewGlobals not strictly ascending")
			}
			if local[g] != i {
				t.Errorf("local order mismatch: global %d at %d, want %d", g, i, local[g])
			}
		}
		fd := pl.MoveFloats(c, data)
		id := pl.MoveInts(c, idata)
		for i, g := range ng {
			if fd[i] != float64(10*g) {
				t.Errorf("float payload for %d = %v", g, fd[i])
			}
			if id[i] != 3*g {
				t.Errorf("int payload for %d = %v", g, id[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemapIdentityIsNoOp(t *testing.T) {
	const n, p = 12, 3
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		b := dist.NewBlock(n, p)
		lo, hi := b.Lo(c.Rank()), b.Hi(c.Rank())
		myGlobals := make([]int, hi-lo)
		dest := make([]int, hi-lo)
		data := make([]float64, hi-lo)
		for l := range myGlobals {
			myGlobals[l] = lo + l
			dest[l] = c.Rank()
			data[l] = float64(lo + l)
		}
		pl := Build(c, myGlobals, dest)
		got := pl.MoveFloats(c, data)
		if len(got) != len(data) {
			t.Fatalf("identity remap changed size")
		}
		for i := range got {
			if got[i] != data[i] {
				t.Errorf("identity remap moved element %d", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemapPlanReusedForMultipleArrays(t *testing.T) {
	const n, p = 20, 4
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		b := dist.NewBlock(n, p)
		lo, hi := b.Lo(c.Rank()), b.Hi(c.Rank())
		myGlobals := make([]int, hi-lo)
		dest := make([]int, hi-lo)
		for l := range myGlobals {
			g := lo + l
			myGlobals[l] = g
			dest[l] = (g * 7 % p)
		}
		pl := Build(c, myGlobals, dest)
		for pass := 0; pass < 3; pass++ {
			data := make([]float64, hi-lo)
			for l := range data {
				data[l] = float64(pass*1000 + lo + l)
			}
			got := pl.MoveFloats(c, data)
			for i, g := range pl.NewGlobals() {
				if got[i] != float64(pass*1000+g) {
					t.Errorf("pass %d: global %d got %v", pass, g, got[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemapAllToOneRank(t *testing.T) {
	const n, p = 10, 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		b := dist.NewBlock(n, p)
		lo, hi := b.Lo(c.Rank()), b.Hi(c.Rank())
		var myGlobals, dest []int
		var data []float64
		for g := lo; g < hi; g++ {
			myGlobals = append(myGlobals, g)
			dest = append(dest, 1)
			data = append(data, float64(g))
		}
		pl := Build(c, myGlobals, dest)
		got := pl.MoveFloats(c, data)
		if c.Rank() == 1 {
			if len(got) != n {
				t.Fatalf("rank 1 has %d elements, want %d", len(got), n)
			}
			for g := 0; g < n; g++ {
				if got[g] != float64(g) {
					t.Errorf("element %d = %v", g, got[g])
				}
			}
		} else if len(got) != 0 {
			t.Errorf("rank 0 kept %d elements", len(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemapDetectsDuplicateDelivery(t *testing.T) {
	const p = 2
	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		// Both ranks claim to own global 5 and send it to rank 0.
		Build(c, []int{5}, []int{0})
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-delivery panic", err)
	}
}

func TestRemapLengthMismatchPanics(t *testing.T) {
	err := machine.Run(machine.Zero(1), func(c *machine.Ctx) {
		Build(c, []int{1, 2}, []int{0})
	})
	if err == nil {
		t.Fatal("expected panic")
	}
}
