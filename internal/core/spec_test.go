package core

import (
	"fmt"
	"math"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
)

// specKernel is the loop body of TestExecutorMatchesSerialSweep: two
// reads a, b and two contributions per iteration whose every sum,
// product, maximum and minimum is exact, so any order of combining them
// gives the same bits. Under ADD, MAX and MIN the contributions are
// small integers; under MUL they are ±1, ±2 or ±0.5, rare enough that
// no product leaves the normal range; under ASSIGN an iteration
// contributes only where it is the first, in serial order, to write its
// target (first[k][iter]) and NaN, the untouched sentinel, elsewhere.
func specKernel(op Reduce, iter int, a, b float64, first [2][]bool) (c0, c1 float64) {
	switch op {
	case Mul:
		sign := func(v float64) float64 {
			if v >= 0 {
				return 1
			}
			return -1
		}
		pow := func(i int) float64 {
			switch i % 64 {
			case 0:
				return 2
			case 32:
				return 0.5
			}
			return 1
		}
		return sign(a-b) * pow(iter), sign(b-a) * pow(iter+16)
	case Assign:
		c0, c1 = 2*a+b+float64(iter), b-a-float64(iter)
		if !first[0][iter] {
			c0 = math.NaN()
		}
		if !first[1][iter] {
			c1 = math.NaN()
		}
		return c0, c1
	}
	return 2*a + b + float64(iter%5), b - a - float64(iter%3)
}

// serialSweep is the executor's specification: one pass over every
// iteration in global order on replicated arrays, iteration i reading
// x(ia(i)) and x(ib(i)) and combining its two contributions into
// y(ia(i)) and z(ib(i)) with op.
func serialSweep(op Reduce, x, y, z []float64, ia, ib []int, first [2][]bool) {
	for i := range ia {
		c0, c1 := specKernel(op, i, x[ia[i]], x[ib[i]], first)
		y[ia[i]] = op.combine(y[ia[i]], c0)
		z[ib[i]] = op.combine(z[ib[i]], c1)
	}
}

// Execute is a serial sweep, bit for bit: on P = 1, 3 and 8 ranks,
// for every reduction, for local iteration counts 0, 1, 255, 256, 257
// and 513, with random references, with every reference pointing at
// one element and with every reference a ghost (each iteration on rank r reads and
// writes only elements of rank r+1 mod P), after an inspecting step and
// after a reusing one, y and z hold exactly the bits of that many
// serial sweeps over replicated arrays with the same kernel, and x is
// untouched. The loop's two writes go to different arrays through
// different indirection arrays, so a contribution combined into the
// other write's buffer, or through the other write's references,
// changes the result.
func TestExecutorMatchesSerialSweep(t *testing.T) {
	const n = 40
	for _, p := range []int{1, 3, 8} {
		for _, op := range []Reduce{Assign, Add, Max, Min, Mul} {
			for _, local := range []int{0, 1, 255, 256, 257, 513} {
				for _, refs := range []string{"random", "one element", "ghosts"} {
					if refs == "ghosts" && p == 1 {
						continue // one rank has no ghosts
					}
					name := fmt.Sprintf("P=%d/%v/local=%d/%s", p, op, local, refs)
					t.Run(name, func(t *testing.T) { checkSerialSweep(t, p, op, local, refs, n) })
				}
			}
		}
	}
}

func checkSerialSweep(t *testing.T, p int, op Reduce, local int, refs string, n int) {
	nIter := p * local
	iters, elems := dist.NewBlock(nIter, p), dist.NewBlock(n, p)
	ref := func(g, salt int) int {
		switch refs {
		case "one element":
			return n / 2
		case "ghosts": // an element of the next rank's block
			next := (iters.Owner(g) + 1) % p
			lo := elems.Lo(next)
			return lo + mix(g, salt)%(elems.Hi(next)-lo)
		}
		return mix(g, salt) % n
	}
	ia, ib := make([]int, nIter), make([]int, nIter)
	for g := range ia {
		ia[g], ib[g] = ref(g, 1), ref(g, 2)
	}
	// first[k][i]: iteration i is the first to write its element of y
	// (k = 0) or z (k = 1); ASSIGN writes nowhere else.
	first := [2][]bool{make([]bool, nIter), make([]bool, nIter)}
	for k, ind := range [][]int{ia, ib} {
		seen := make([]bool, n)
		for i, e := range ind {
			first[k][i], seen[e] = !seen[e], true
		}
	}
	x0 := func(g int) float64 { return float64(g%7 - 3) }
	y0 := func(g int) float64 { return float64(g%11 + 1) }
	z0 := func(g int) float64 { return float64(-(g%5 + 2)) }

	want := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for g := range n {
		want[0][g], want[1][g], want[2][g] = x0(g), y0(g), z0(g)
	}
	var wantSteps [2][3][]float64
	for s := range wantSteps {
		serialSweep(op, want[0], want[1], want[2], ia, ib, first)
		for a := range want {
			wantSteps[s][a] = append([]float64(nil), want[a]...)
		}
	}

	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		x, y, z := s.NewArray("x", n), s.NewArray("y", n), s.NewArray("z", n)
		x.FillByGlobal(x0)
		y.FillByGlobal(y0)
		z.FillByGlobal(z0)
		ea, eb := s.NewIntArray("ia", nIter), s.NewIntArray("ib", nIter)
		ea.FillByGlobal(func(g int) int { return ia[g] })
		eb.FillByGlobal(func(g int) int { return ib[g] })
		kernel := KernelFunc(func(st *Strip) {
			for b, iter := range st.Iters {
				c0, c1 := specKernel(op, iter, st.Reads[0].At(b), st.Reads[1].At(b), first)
				st.Writes[0].Combine(b, c0)
				st.Writes[1].Combine(b, c1)
			}
		})
		loop := s.NewLoop("spec", nIter, []Read{{x, ea}, {x, eb}}, []Write{{y, ea, op}, {z, eb, op}}, 1, kernel)
		for step, want := range wantSteps {
			loop.Execute() // every rank runs every step, whatever it found
		compare:
			for a, arr := range []*Array{x, y, z} {
				for i, g := range arr.MyGlobals() {
					if got := arr.Data[i]; math.Float64bits(got) != math.Float64bits(want[a][g]) {
						t.Errorf("rank %d step %d: %s(%d) = %v (%#x), serial sweep %v (%#x)", c.Rank(), step+1,
							arr.Name, g, got, math.Float64bits(got), want[a][g], math.Float64bits(want[a][g]))
						break compare
					}
				}
			}
		}
		if hits, _ := s.Reg.Stats(); hits != 1 {
			t.Errorf("rank %d: %d schedule reuses, want 1", c.Rank(), hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
