package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/iterpart"
	"chaos/internal/machine"
	"chaos/internal/xrand"
)

// soundTrace is what one rank saw over a run of reuseProgram: the bits
// of x and of y after every op, and the name of that op.
type soundTrace struct {
	bits [][]uint64
	ops  []string
}

func (tr *soundTrace) add(op string, arrays ...*Array) {
	for _, a := range arrays {
		b := make([]uint64, len(a.Data))
		for i, v := range a.Data {
			b[i] = math.Float64bits(v)
		}
		tr.bits = append(tr.bits, b)
	}
	tr.ops = append(tr.ops, op)
}

// reuseProgram is one rank's run of a random program of nOps ops over
// an irregular loop that reads x and reduces into y through three
// indirection arrays, followed by two closing executions. Between
// executions the program rewrites x, y or an indirection array, swaps
// the indirection arrays of two accesses, redistributes x, y or both
// by a random map array, and repartitions the iterations under a random
// policy. Every draw comes from a stream seeded alike on every rank.
// reuse picks Execute over ExecuteNoReuse. It returns the registry's
// reuse hits.
func reuseProgram(c *machine.Ctx, tr *soundTrace, seed uint64, n, nIter, nOps int, reuse bool) int {
	s := NewSession(c)
	rng := xrand.New(seed)
	value := func(salt uint64) func(g int) float64 {
		return func(g int) float64 { return float64(int(xrand.Hash64(salt^uint64(g))%2001)-1000) / 8 }
	}
	index := func(salt uint64) func(g int) int {
		return func(g int) int { return int(xrand.Hash64(salt^uint64(g)) % uint64(n)) }
	}
	x, y := s.NewArray("x", n), s.NewArray("y", n)
	x.FillByGlobal(value(rng.Uint64()))
	y.FillByGlobal(value(rng.Uint64()))
	var inds [3]*IntArray
	for i := range inds {
		inds[i] = s.NewIntArray(fmt.Sprintf("e%d", i+1), nIter)
		// Initial contents, set before any loop exists and so without a
		// modification event: the three lastmod stamps stay 0 until the
		// program rewrites or remaps an array, and a swap between two
		// such arrays is caught by reuse condition 2 alone.
		f := index(rng.Uint64())
		for l, g := range inds[i].gl {
			inds[i].Data[l] = f(g)
		}
	}
	ops := []Reduce{Add, Max, Min}
	loop := s.NewLoop("sound", nIter,
		[]Read{{x, inds[0]}, {x, inds[1]}},
		[]Write{{y, inds[0], ops[rng.Intn(3)]}, {y, inds[2], ops[rng.Intn(3)]}},
		4, perIter(func(iter int, in, out []float64) {
			out[0] = in[0] - 0.5*in[1] + float64(iter%5)
			out[1] = 0.25*in[1] + in[0]
		}))
	// access returns the indirection-array field of access a, reads
	// first. A swap keeps all three arrays in use, so a repartition of
	// the iterations moves all three and they stay aligned with them.
	access := func(a int) **IntArray {
		if a < len(loop.Reads) {
			return &loop.Reads[a].Ind
		}
		return &loop.Writes[a-len(loop.Reads)].Ind
	}
	policies := []iterpart.Policy{iterpart.AlmostOwnerComputes, iterpart.OwnerComputes, iterpart.BlockIterations}
	aligned := true // x and y share one distribution
	for op := 0; op < nOps+2; op++ {
		k := rng.Intn(10)
		if op >= nOps {
			k = 0
		}
		var name string
		switch {
		case k < 4:
			name = "execute"
			if reuse {
				loop.Execute()
			} else {
				loop.ExecuteNoReuse()
			}
		case k == 4:
			a := []*Array{x, y}[rng.Intn(2)]
			name = "rewrite " + a.Name
			a.FillByGlobal(value(rng.Uint64()))
		case k == 5:
			e := inds[rng.Intn(len(inds))]
			name = "rewrite " + e.Name
			e.FillByGlobal(index(rng.Uint64()))
		case k == 6:
			a, b := rng.Intn(4), rng.Intn(4)
			name = fmt.Sprintf("swap accesses %d and %d", a, b)
			*access(a), *access(b) = *access(b), *access(a)
		case k < 9:
			m := s.NewIntArray("map", n)
			salt := rng.Uint64()
			m.FillByGlobal(func(g int) int { return int(xrand.Hash64(salt^uint64(g)) % uint64(c.Procs())) })
			moved := []*Array{x, y}
			switch w := rng.Intn(3); {
			case w == 2 && aligned:
				name = "redistribute x and y"
			case w == 1:
				name, moved, aligned = "redistribute y", moved[1:], false
			default:
				name, moved, aligned = "redistribute x", moved[:1], false
			}
			s.Redistribute(s.MappingFromIntArray(m), moved, nil)
		default:
			pol := policies[rng.Intn(len(policies))]
			name = fmt.Sprintf("partition iterations (%v)", pol)
			loop.PartitionIterations(pol)
		}
		tr.add(name, x, y)
	}
	hits, _ := s.Reg.Stats()
	return hits
}

// TestReuseIsSound is the model test of the paper's Section 3 reuse
// method at the loop level: each seed draws n, the iteration count, P
// in 1..6 and a random program (reuseProgram), and runs it once with
// Execute, whose registry may reuse the saved inspector, and once with
// ExecuteNoReuse, which inspects before every execution. After every
// op every rank's x and y must agree bit for bit, and the reusing run
// must have reused at least once.
func TestReuseIsSound(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		shape := xrand.New(seed)
		p, n, nIter, nOps := 1+shape.Intn(6), 5+shape.Intn(60), 1+shape.Intn(100), 12+shape.Intn(9)
		label := fmt.Sprintf("seed %d (P=%d n=%d iters=%d)", seed, p, n, nIter)
		run := func(reuse bool) ([]soundTrace, int) {
			traces := make([]soundTrace, p)
			hits := 0
			err := machine.Run(machine.Zero(p), func(c *machine.Ctx) {
				h := reuseProgram(c, &traces[c.Rank()], seed, n, nIter, nOps, reuse)
				if c.Rank() == 0 {
					hits = h
				}
			})
			if err != nil {
				t.Fatalf("%s reuse=%v: %v", label, reuse, err)
			}
			return traces, hits
		}
		want, _ := run(false)
		got, hits := run(true)
		if hits == 0 {
			t.Errorf("%s: the reusing run never reused", label)
		}
	ranks:
		for r := range want {
			for i, b := range want[r].bits {
				if !slices.Equal(got[r].bits[i], b) {
					t.Errorf("%s rank %d: %s differs after op %d (%s)", label, r, []string{"x", "y"}[i%2], i/2, want[r].ops[i/2])
					break ranks
				}
			}
		}
	}
}
