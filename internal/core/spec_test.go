package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
)

// specKernel is the loop body of TestExecutorMatchesSerialSweep: three
// reads a, b, d and three contributions per iteration whose every sum,
// product, maximum and minimum is exact, so any order of combining them
// gives the same bits. Under ADD, MAX and MIN the contributions are
// small integers; under MUL they are ±1, ±2 or ±0.5, rare enough that
// no product leaves the normal range; under ASSIGN an iteration
// contributes c_k only where it is the first, in serial order, to write
// its target (first[k][iter]) and NaN, the untouched sentinel,
// elsewhere.
func specKernel(op Reduce, iter int, a, b, d float64, first [3][]bool) (c [3]float64) {
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
		return [3]float64{sign(a-b) * pow(iter), sign(b-a) * pow(iter+16), sign(d-a) * pow(iter+8)}
	case Assign:
		c = [3]float64{2*a + b + float64(iter), b - a - float64(iter), 3*d - a + float64(iter)}
		for k := range c {
			if !first[k][iter] {
				c[k] = math.NaN()
			}
		}
		return c
	}
	return [3]float64{2*a + b + float64(iter%5), b - a - float64(iter%3), 3*d - a + float64(iter%7)}
}

// specLoop is the shape of one loop of TestExecutorMatchesSerialSweep,
// as positions in the test's lists of arrays and indirection arrays:
// iteration i reads x(i1(i)), x(i2(i)) and w(iw(i)) and combines its
// three contributions into y(i1(i)), z(i2(i)) and v(i3(i)). i3 is a
// pattern only a write uses.
type specLoop struct {
	x, w, y, z, v  int
	i1, i2, iw, i3 int
}

// specLoops are the two loops of TestExecutorMatchesSerialSweep. Both
// read x and w, through different indirection arrays, and write arrays
// of their own; the second writes through the first's i1. The first
// reads w through its second pattern, whose ghosts sit behind the
// first's; the second reads w through a third, so its inspection needs
// a longer tail behind w than the first's did.
var specLoops = [2]specLoop{
	{x: 0, w: 1, y: 2, z: 3, v: 4, i1: 0, i2: 1, iw: 1, i3: 2},
	{x: 0, w: 1, y: 5, z: 6, v: 7, i1: 3, i2: 4, iw: 5, i3: 0},
}

// serialSweep is the executor's specification: one pass of loop sl over
// every iteration in global order on replicated arrays, combining with
// op. first[j][i] says whether iteration i is the first to write its
// element through indirection array j.
func serialSweep(op Reduce, sl specLoop, arr [][]float64, ind [][]int, first [][]bool) {
	x, w, y, z, v := arr[sl.x], arr[sl.w], arr[sl.y], arr[sl.z], arr[sl.v]
	i1, i2, iw, i3 := ind[sl.i1], ind[sl.i2], ind[sl.iw], ind[sl.i3]
	f := [3][]bool{first[sl.i1], first[sl.i2], first[sl.i3]}
	for i := range i1 {
		c := specKernel(op, i, x[i1[i]], x[i2[i]], w[iw[i]], f)
		y[i1[i]] = op.combine(y[i1[i]], c[0])
		z[i2[i]] = op.combine(z[i2[i]], c[1])
		v[i3[i]] = op.combine(v[i3[i]], c[2])
	}
}

// Execute is a serial sweep, bit for bit: on P = 1, 3 and 8 ranks,
// for every reduction, for local iteration counts 0, 1, 255, 256, 257
// and 513, with random references, with every reference pointing at
// one element and with every reference a ghost (each iteration on rank r reads and
// writes only elements of rank r+1 mod P), after an inspecting step and
// after a reusing one, every written array holds exactly the bits of
// that many serial sweeps over replicated arrays with the same kernel,
// and the read arrays are untouched. Each loop's three writes go to
// different arrays through different indirection arrays, so a
// contribution combined into another write's buffer, or through another
// write's references, changes the result.
//
// The loops cover the ghost layout: a second array (w) read through a
// pattern whose ghosts sit behind another pattern's, a pattern only a
// write uses, and two loops reading x and w through different
// indirection arrays, interleaved step by step, the first reusing its
// schedules while the second re-inspects (ExecuteNoReuse) and so
// reserves, and moves, the storage the first gathers into.
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
	const nArr, nInd = 8, 6
	ind := make([][]int, nInd)
	// first[j][i]: iteration i is the first to write its element
	// through ind[j]; ASSIGN writes nowhere else. Every written array is
	// written through one indirection array.
	first := make([][]bool, nInd)
	for j := range ind {
		ind[j], first[j] = make([]int, nIter), make([]bool, nIter)
		seen := make([]bool, n)
		for g := range ind[j] {
			e := ref(g, j+1)
			ind[j][g] = e
			first[j][g], seen[e] = !seen[e], true
		}
	}
	// Small integers of both signs. The loops only read x and w, and
	// before step s both are filled anew (a data write, which leaves the
	// schedules valid) with init(a+s·nArr, ·): the second step's operands
	// differ from the first's.
	init := func(a, g int) float64 { return float64((g+3*a)%(7+2*a) - 3 - a%3) }
	reads := []int{specLoops[0].x, specLoops[0].w}

	want := make([][]float64, nArr)
	for a := range want {
		want[a] = make([]float64, n)
		for g := range n {
			want[a][g] = init(a, g)
		}
	}
	var wantSteps [2][][]float64
	for s := range wantSteps {
		for _, a := range reads {
			for g := range want[a] {
				want[a][g] = init(a+s*nArr, g)
			}
		}
		for _, sl := range specLoops {
			serialSweep(op, sl, want, ind, first)
		}
		for _, w := range want {
			wantSteps[s] = append(wantSteps[s], slices.Clone(w))
		}
	}

	err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
		s := NewSession(c)
		arrays := make([]*Array, nArr)
		for a := range arrays {
			arrays[a] = s.NewArray(fmt.Sprintf("a%d", a), n)
			arrays[a].FillByGlobal(func(g int) float64 { return init(a, g) })
		}
		inds := make([]*IntArray, nInd)
		for j := range inds {
			inds[j] = s.NewIntArray(fmt.Sprintf("i%d", j), nIter)
			inds[j].FillByGlobal(func(g int) int { return ind[j][g] })
		}
		var loops [2]*Loop
		for l, sl := range specLoops {
			f := [3][]bool{first[sl.i1], first[sl.i2], first[sl.i3]}
			kernel := KernelFunc(func(st *Strip) {
				for b, iter := range st.Iters {
					c := specKernel(op, iter, st.Reads[0].At(b), st.Reads[1].At(b), st.Reads[2].At(b), f)
					for k := range c {
						st.Writes[k].Combine(b, c[k])
					}
				}
			})
			x, w, i1, i2 := arrays[sl.x], arrays[sl.w], inds[sl.i1], inds[sl.i2]
			loops[l] = s.NewLoop(fmt.Sprintf("spec%d", l), nIter,
				[]Read{{x, i1}, {x, i2}, {w, inds[sl.iw]}},
				[]Write{{arrays[sl.y], i1, op}, {arrays[sl.z], i2, op}, {arrays[sl.v], inds[sl.i3], op}}, 1, kernel)
		}
		for step, want := range wantSteps {
			for _, a := range reads {
				arrays[a].FillByGlobal(func(g int) float64 { return init(a+step*nArr, g) })
			}
			loops[0].Execute() // every rank runs every step, whatever it found
			loops[1].ExecuteNoReuse()
		compare:
			for a, arr := range arrays {
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
