package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/ttable"
)

// rebuildRound is what one rank observed in one round of the rebuild
// program: the schedule it built, field by field, its reference vector
// (which, with the round's globals, fixes the ghost slot → global map),
// the rank's clock after the build and after the data movements, and
// what a Gather and a ScatterAdd through every live schedule produced.
type rebuildRound struct {
	procs, nGhost        int
	sendLocal, recvGhost [][]int
	ref                  []int
	built, moved         float64
	acc                  []float64
}

func (r *rebuildRound) diff(want *rebuildRound) string {
	rows := func(a, b [][]int) bool {
		return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
	}
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case r.procs != want.procs || r.nGhost != want.nGhost:
		return fmt.Sprintf("procs %d nGhost %d, fresh %d and %d", r.procs, r.nGhost, want.procs, want.nGhost)
	case !rows(r.sendLocal, want.sendLocal):
		return fmt.Sprintf("sendLocal %v, fresh %v", r.sendLocal, want.sendLocal)
	case !rows(r.recvGhost, want.recvGhost):
		return fmt.Sprintf("recvGhost %v, fresh %v", r.recvGhost, want.recvGhost)
	case !slices.Equal(r.ref, want.ref):
		return fmt.Sprintf("reference vector %v, fresh %v", r.ref, want.ref)
	case !bits(r.built, want.built) || !bits(r.moved, want.moved):
		return fmt.Sprintf("clocks %v and %v, fresh %v and %v", r.built, r.moved, want.built, want.moved)
	case !slices.EqualFunc(r.acc, want.acc, bits):
		return fmt.Sprintf("scattered %v, fresh %v", r.acc, want.acc)
	}
	return ""
}

func cloneRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for p, r := range rows {
		out[p] = slices.Clone(r)
	}
	return out
}

// TestRebuildInPlaceMatchesFresh is the differential test of the
// in-place build, with the fresh build as its oracle: one random
// program — rounds that each rebuild one of three build positions over
// a new reference list (growing, shrinking, empty, all local, all
// remote), then mostly gather
// and scatter-add through every live schedule — run once rebuilding each
// position into the schedule and reference vector it replaces and once
// building everything fresh. After every round the schedule must equal
// the fresh one field by field, the reference vectors, the per-rank
// virtual clocks (bit for bit) and the moved data likewise. Translation
// table and Regular resolvers — the second puts no collective between
// a scatter's unpack and the next build's fill, the case the two
// request slabs exist for — P = 1, 3 and 8, both backends, with random
// per-rank stalls so that ranks leave each collective far apart. A
// buffer rewritten while a peer still reads it is a data race (run
// under -race) or a wrong round.
func TestRebuildInPlaceMatchesFresh(t *testing.T) {
	const n, rounds, positions = 64, 60, 3
	for _, p := range []int{1, 3, 8} {
		for _, regular := range []bool{false, true} {
			for _, backend := range []machine.Backend{machine.Simulated, machine.Real} {
				label := fmt.Sprintf("P=%d regular=%v %v", p, regular, backend)
				owner := irregularOwners(n, p)
				block := dist.NewBlock(n, p)
				if regular {
					for g := range owner {
						owner[g] = block.Owner(g)
					}
				}
				run := func(inPlace bool) [][]rebuildRound {
					cfg := machine.IPSC860(p)
					cfg.Backend = backend
					traces := make([][]rebuildRound, p)
					err := machine.Run(cfg, func(c *machine.Ctx) {
						mine := ownedBy(owner, c.Rank())
						var res ttable.Resolver = ttable.Regular{D: block}
						if !regular {
							res = ttable.Build(c, n, mine)
						}
						local := make([]float64, len(mine))
						for l, g := range mine {
							local[l] = 1000 + float64(g)
						}
						// ctl draws what every rank must agree on, rng this
						// rank's reference lists, stalls its delays.
						ctl := rand.New(rand.NewSource(int64(p)))
						rng := rand.New(rand.NewSource(int64(100*p + c.Rank())))
						stalls := rand.New(rand.NewSource(int64(c.Rank())))
						stall := func() {
							if stalls.Intn(4) == 0 {
								time.Sleep(time.Duration(stalls.Intn(100)) * time.Microsecond)
							}
						}
						var b Builder
						var scheds [positions]*Schedule
						var refs, ghostOf [positions][]int
						for round := 0; round < rounds; round++ {
							k, opt := ctl.Intn(positions), Options{}
							globals := referenceList(rng, owner, mine, c.Rank())
							stall()
							if inPlace {
								scheds[k], refs[k] = b.BuildGather(c, res, len(mine), globals, opt, scheds[k], refs[k])
							} else {
								scheds[k], refs[k] = BuildGather(c, res, len(mine), globals, opt)
							}
							s := scheds[k]
							tr := rebuildRound{
								procs: s.procs, nGhost: s.nGhost,
								sendLocal: cloneRows(s.sendLocal), recvGhost: cloneRows(s.recvGhost),
								ref:   slices.Clone(refs[k]),
								built: c.Clock(),
							}
							ghostOf[k] = ghostGlobals(t, globals, refs[k], len(mine), s.nGhost)
							for i, g := range globals {
								if r := refs[k][i]; r < len(mine) && mine[r] != g {
									t.Errorf("%s rank %d round %d: globals[%d]=%d referenced as %d", label, c.Rank(), round, i, g, r)
									break
								}
							}
							// Every live schedule moves data, the one just built
							// last: its scatter is what the next build follows.
							// Now and then nothing moves, and the next build
							// follows this one's exchange directly.
							acc, idle := make([]float64, len(mine)), ctl.Intn(4) == 0
							for d := 1; d <= positions; d++ {
								j := (k + d) % positions
								s := scheds[j]
								if s == nil || idle {
									continue
								}
								stall()
								ghost := make([]float64, s.nGhost)
								s.Gather(c, local, ghost)
								for slot, v := range ghost {
									if v != 1000+float64(ghostOf[j][slot]) {
										t.Errorf("%s rank %d round %d: slot %d gathered %v", label, c.Rank(), round, slot, v)
										break
									}
								}
								s.ScatterAdd(c, acc, ghost)
							}
							tr.moved, tr.acc = c.Clock(), acc
							traces[c.Rank()] = append(traces[c.Rank()], tr)
						}
					})
					if err != nil {
						t.Fatalf("%s in place=%v: %v", label, inPlace, err)
					}
					return traces
				}
				want, got := run(false), run(true)
				for r := range want {
					for round := range want[r] {
						if d := got[r][round].diff(&want[r][round]); d != "" {
							t.Fatalf("%s rank %d round %d: %s", label, r, round, d)
						}
					}
				}
			}
		}
	}
}
