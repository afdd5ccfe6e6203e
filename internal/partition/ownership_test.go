package partition

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// bucketModel is the specification of fmBuckets in ten lines: one FIFO
// queue per integer gain clamped to ±fmBucketSpan, and pop takes the
// first entry of the highest non-empty queue.
type bucketModel [2*fmBucketSpan + 1][]fmCand

func (m *bucketModel) push(c fmCand) {
	b := int(math.Max(-fmBucketSpan, math.Min(fmBucketSpan, math.Floor(c.gain)))) + fmBucketSpan
	m[b] = append(m[b], c)
}

func (m *bucketModel) pop() (fmCand, bool) {
	for b := len(m) - 1; b >= 0; b-- {
		if len(m[b]) > 0 {
			c := m[b][0]
			m[b] = m[b][1:]
			return c, true
		}
	}
	return fmCand{}, false
}

// TestFMBucketsMatchModel drives fmBuckets and the model through random
// programs shaped like a refinement pass — bursts of pushes, runs of
// pops, popped candidates stashed and pushed back later (the refiners'
// balance-blocked stash), gains far outside the bucket span, fractional
// and negative ones, resets in the middle of everything, pops on empty
// — and demands the same candidate from both at every pop.
func TestFMBucketsMatchModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var fb fmBuckets // the zero value must be ready
		var model bucketModel
		var blocked []fmCand
		serial := int32(0)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				fb.reset()
				model = bucketModel{}
			case op < 9:
				for n := rng.Intn(6); n >= 0; n-- {
					gain := float64(rng.Intn(9) - 4)
					switch rng.Intn(6) {
					case 0:
						gain = float64(rng.Intn(400) - 200) // clamps to an end bucket
					case 1:
						gain += rng.Float64()
					}
					serial++
					c := fmCand{l: rng.Int31n(50), to: rng.Int31n(8), gain: gain, stamp: serial}
					fb.push(c)
					model.push(c)
				}
			case op < 11:
				for _, c := range blocked {
					fb.push(c)
					model.push(c)
				}
				blocked = blocked[:0]
			default:
				for n := rng.Intn(5); n >= 0; n-- {
					got, ok := fb.pop()
					want, wantOK := model.pop()
					if got != want || ok != wantOK {
						t.Fatalf("seed %d step %d: popped %+v %v, model %+v %v", seed, step, got, ok, want, wantOK)
					}
					if ok && rng.Intn(4) == 0 {
						blocked = append(blocked, got)
					}
				}
			}
		}
	}
}

// stalled wraps every operation of ops so that the rank sleeps at random
// after it, which makes ranks arrive at the next operation's exchanges
// far apart.
func stalled(ops levelOps, seed int64) levelOps {
	rng := rand.New(rand.NewSource(seed))
	stall := func() {
		if rng.Intn(3) == 0 {
			time.Sleep(time.Duration(rng.Intn(80)) * time.Microsecond)
		}
	}
	return levelOps{
		match: func(c *machine.Ctx, g *geocol.Graph, ge *geocol.GhostExchange, maxW float64, seed uint64) []int {
			defer stall()
			return ops.match(c, g, ge, maxW, seed)
		},
		number: func(c *machine.Ctx, g *geocol.Graph, match []int) ([]int, int) {
			defer stall()
			return ops.number(c, g, match)
		},
		restrict: func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, part []int) []int {
			defer stall()
			return ops.restrict(c, fine, cmap, coarse, part)
		},
		project: func(c *machine.Ctx, fine *geocol.Graph, cmap []int, coarse *geocol.Graph, cpart []int) []int {
			defer stall()
			return ops.project(c, fine, cmap, coarse, cpart)
		},
		kway: func(c *machine.Ctx, g *geocol.Graph, part []int, nparts int) {
			defer stall()
			ops.kway(c, g, part, nparts)
		},
	}
}

// TestLevelExchangesOwnershipUnderDelays is the ownership rule's proof
// for the exchanges of the level machinery — matching proposals, coarse
// id notifications, restriction pairs, projection requests and replies,
// the root-only gathers of the k-way polish: one recycled arena per
// rank carries every hostile graph's three matchings, two numberings,
// restriction, polish and projection back to back, so every row
// builder's first buffer is refilled many times while the ranks drift
// apart under random stalls. Every result and every per-rank virtual
// clock must equal the AlltoAllInts formulation's (the parent bodies in
// reference_test.go, which copy every row), on P ∈ {1, 3, 8}. A buffer
// rewritten too early is a difference here or a data race under -race.
func TestLevelExchangesOwnershipUnderDelays(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		want := runLevels(t, p, referenceOps)
		var seed atomic.Int64 // every rank stalls on a sequence of its own
		got := runLevels(t, p, func() levelOps { return stalled(currentOps(true), seed.Add(1)) })
		for r := range want {
			for i, w := range want[r] {
				switch s := got[r][i]; {
				case !slices.Equal(s.ints, w.ints):
					t.Errorf("P=%d rank %d, %s: %v, AlltoAll formulation %v", p, r, w.what, s.ints, w.ints)
				case s.clock != w.clock:
					t.Errorf("P=%d rank %d, %s: clock %v, AlltoAll formulation %v", p, r, w.what, s.clock, w.clock)
				}
			}
		}
	}
}
