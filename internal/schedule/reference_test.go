package schedule

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/ttable"
)

// referenceBuildGather is the map-and-sort.Slice BuildGather body this
// package shipped before the Builder rewrite, kept verbatim but for the
// branch of the deleted no-deduplication option, as the oracle of the
// differential test below (the dereference it sits on has
// its own oracle in package ttable).
func referenceBuildGather(c *machine.Ctx, res ttable.Resolver, myLocalSize int, globals []int, opt Options) (*Schedule, []int) {
	p := c.Procs()
	me := c.Rank()
	owners, locals := res.Resolve(c, globals)

	ref := make([]int, len(globals))

	// Deduplicate off-processor references. Hash cost charged per
	// reference; slot order is (owner, global) sorted for
	// determinism and contiguous per-peer receive buffers.
	type remote struct{ owner, global, local int }
	var uniq []remote
	slotOf := make(map[int]int) // global -> ghost slot
	seen := make(map[int]bool, len(globals))
	for i := range globals {
		if owners[i] == me {
			continue
		}
		if !seen[globals[i]] {
			seen[globals[i]] = true
			uniq = append(uniq, remote{owners[i], globals[i], locals[i]})
		}
	}
	c.Words(2 * len(globals)) // hash probes + owner tests
	sort.Slice(uniq, func(a, b int) bool {
		if uniq[a].owner != uniq[b].owner {
			return uniq[a].owner < uniq[b].owner
		}
		if uniq[a].global != uniq[b].global {
			return uniq[a].global < uniq[b].global
		}
		return false
	})
	c.Words(2 * len(uniq)) // sort traffic (approximate)

	s := &Schedule{procs: p}
	s.sendLocal = make([][]int, p)
	s.recvGhost = make([][]int, p)
	s.nGhost = len(uniq)

	// Assign ghost slots and build per-owner request lists (the
	// owner's local indices we need).
	requests := make([][]int, p)
	for slot, r := range uniq {
		slotOf[r.global] = slot
		requests[r.owner] = append(requests[r.owner], r.local)
		s.recvGhost[r.owner] = append(s.recvGhost[r.owner], slot)
	}
	for i := range globals {
		if owners[i] == me {
			ref[i] = locals[i]
		} else {
			ref[i] = myLocalSize + slotOf[globals[i]]
		}
	}
	c.Words(2 * len(globals))

	// Exchange request lists: what I ask of p becomes p's send list
	// to me.
	in := c.AlltoAllInts(requests)
	for src := 0; src < p; src++ {
		if len(in[src]) > 0 {
			s.sendLocal[src] = in[src]
		}
	}
	// Validate send-list bounds eagerly so executor failures point at
	// the inspector.
	for src, lst := range s.sendLocal {
		for _, l := range lst {
			if l < 0 || l >= myLocalSize {
				panic(fmt.Sprintf("schedule: rank %d requested local index %d of rank %d (size %d)",
					src, l, me, myLocalSize))
			}
		}
	}
	return s, ref
}

// irregularOwners deals the n globals to p ranks at random.
func irregularOwners(n, p int) []int {
	owner := make([]int, n)
	rng := rand.New(rand.NewSource(42))
	for g := range owner {
		owner[g] = rng.Intn(p)
	}
	return owner
}

func ownedBy(owner []int, rank int) []int {
	var out []int
	for g, o := range owner {
		if o == rank {
			out = append(out, g)
		}
	}
	return out
}

// referenceList draws one rank's reference list of a differential
// round: empty on some ranks, otherwise uniform draws (mostly remote),
// only the rank's own elements (all local) or only other ranks' (all
// remote), with repeats of earlier entries mixed in.
func referenceList(rng *rand.Rand, owner []int, mine []int, rank int) []int {
	n := len(owner)
	if rng.Intn(5) == 0 {
		return nil
	}
	refs := make([]int, rng.Intn(3*n))
	mode := rng.Intn(3)
	for i := range refs {
		switch {
		case i > 0 && rng.Intn(3) == 0:
			refs[i] = refs[rng.Intn(i)]
		case mode == 1 && len(mine) > 0:
			refs[i] = mine[rng.Intn(len(mine))]
		case mode == 2 && len(mine) < n:
			for refs[i] = rng.Intn(n); owner[refs[i]] == rank; {
				refs[i] = rng.Intn(n)
			}
		default:
			refs[i] = rng.Intn(n)
		}
	}
	return refs
}

// buildTrace is what one rank built over a run: every schedule, a copy
// of every reference vector (the builds recycle them) and the rank's
// clock after every build. Both runs draw the same globals, so equal
// reference vectors are equal ghost slot → global maps.
type buildTrace struct {
	scheds []*Schedule
	refs   [][]int
	clocks []float64
}

func (tr *buildTrace) add(c *machine.Ctx, s *Schedule, ref []int) {
	tr.scheds = append(tr.scheds, s)
	tr.refs = append(tr.refs, slices.Clone(ref))
	tr.clocks = append(tr.clocks, c.Clock())
}

// diff names the first difference between two traces, or "".
func (tr *buildTrace) diff(want *buildTrace) string {
	for i := range want.clocks {
		g, w := tr.scheds[i], want.scheds[i]
		switch {
		case g.nGhost != w.nGhost:
			return fmt.Sprintf("build %d: nGhost %d, reference %d", i, g.nGhost, w.nGhost)
		case !slices.EqualFunc(g.sendLocal, w.sendLocal, slices.Equal[[]int]):
			return fmt.Sprintf("build %d: sendLocal %v, reference %v", i, g.sendLocal, w.sendLocal)
		case !slices.EqualFunc(g.recvGhost, w.recvGhost, slices.Equal[[]int]):
			return fmt.Sprintf("build %d: recvGhost %v, reference %v", i, g.recvGhost, w.recvGhost)
		case !slices.Equal(tr.refs[i], want.refs[i]):
			return fmt.Sprintf("build %d: ref %v, reference %v", i, tr.refs[i], want.refs[i])
		case tr.clocks[i] != want.clocks[i]:
			return fmt.Sprintf("build %d: clock %v, reference %v", i, tr.clocks[i], want.clocks[i])
		}
	}
	return ""
}

// TestBuildersMatchReference drives BuildGather — through one recycled
// Builder per rank with recycled reference vectors, and through the
// one-shot wrapper — and the reference body through the same random
// reference lists, and demands equal schedules,
// reference vectors and per-rank virtual clocks after every build, on
// both backends.
func TestBuildersMatchReference(t *testing.T) {
	const n, rounds = 61, 6
	for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
		for _, p := range []int{1, 2, 3, 8} {
			for _, kind := range []string{"table", "regular"} {
				owner := irregularOwners(n, p)
				if kind == "regular" {
					d := dist.NewBlock(n, p)
					for g := range owner {
						owner[g] = d.Owner(g)
					}
				}
				run := func(reference bool) []buildTrace {
					traces := make([]buildTrace, p)
					cfg := machine.IPSC860(p)
					cfg.Backend = backend
					err := machine.Run(cfg, func(c *machine.Ctx) {
						mine := ownedBy(owner, c.Rank())
						var res ttable.Resolver = ttable.Regular{D: dist.NewBlock(n, p)}
						if kind != "regular" {
							tab := ttable.Build(c, n, mine)
							res = tab
						}
						localSize := len(mine)
						rng := rand.New(rand.NewSource(int64(1000*p + c.Rank())))
						var b Builder
						var ref []int
						tr := &traces[c.Rank()]
						for round := 0; round < 2*rounds; round++ {
							globals := referenceList(rng, owner, mine, c.Rank())
							var s *Schedule
							switch {
							case reference:
								s, ref = referenceBuildGather(c, res, localSize, globals, Options{})
							case round%4 < 2:
								s, ref = BuildGather(c, res, localSize, globals, Options{})
							default:
								s, ref = b.BuildGather(c, res, localSize, globals, Options{}, nil, ref)
							}
							tr.add(c, s, ref)
						}
					})
					if err != nil {
						t.Fatalf("%v P=%d %s reference=%v: %v", backend, p, kind, reference, err)
					}
					return traces
				}
				want, got := run(true), run(false)
				for r := range want {
					if d := got[r].diff(&want[r]); d != "" {
						t.Errorf("%v P=%d %s rank %d: %s", backend, p, kind, r, d)
					}
				}
			}
		}
	}
}
