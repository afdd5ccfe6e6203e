package machine

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAlltoAllIntsTable drives AlltoAllInts through the edge cases the
// distributed coarsening path leans on: empty rows, self-sends only,
// single-rank machines, and fully dense traffic.
func TestAlltoAllIntsTable(t *testing.T) {
	cases := []struct {
		name string
		p    int
		// out(rank) builds the send matrix; want(rank) the expected
		// receive matrix (nil rows mean empty).
		out  func(rank, p int) [][]int
		want func(rank, p int) [][]int
	}{
		{
			name: "single rank self-send",
			p:    1,
			out: func(rank, p int) [][]int {
				return [][]int{{7, 8, 9}}
			},
			want: func(rank, p int) [][]int {
				return [][]int{{7, 8, 9}}
			},
		},
		{
			name: "single rank empty",
			p:    1,
			out: func(rank, p int) [][]int {
				return make([][]int, 1)
			},
			want: func(rank, p int) [][]int {
				return make([][]int, 1)
			},
		},
		{
			name: "all rows empty",
			p:    4,
			out: func(rank, p int) [][]int {
				return make([][]int, p)
			},
			want: func(rank, p int) [][]int {
				return make([][]int, p)
			},
		},
		{
			name: "self-sends only",
			p:    4,
			out: func(rank, p int) [][]int {
				o := make([][]int, p)
				o[rank] = []int{rank * 100}
				return o
			},
			want: func(rank, p int) [][]int {
				w := make([][]int, p)
				w[rank] = []int{rank * 100}
				return w
			},
		},
		{
			name: "one sender to all",
			p:    3,
			out: func(rank, p int) [][]int {
				o := make([][]int, p)
				if rank == 1 {
					for d := 0; d < p; d++ {
						o[d] = []int{10 + d}
					}
				}
				return o
			},
			want: func(rank, p int) [][]int {
				w := make([][]int, p)
				w[1] = []int{10 + rank}
				return w
			},
		},
		{
			name: "dense varying lengths",
			p:    4,
			out: func(rank, p int) [][]int {
				o := make([][]int, p)
				for d := 0; d < p; d++ {
					for i := 0; i <= rank; i++ {
						o[d] = append(o[d], rank*1000+d*10+i)
					}
				}
				return o
			},
			want: func(rank, p int) [][]int {
				w := make([][]int, p)
				for s := 0; s < p; s++ {
					for i := 0; i <= s; i++ {
						w[s] = append(w[s], s*1000+rank*10+i)
					}
				}
				return w
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(Zero(tc.p), func(c *Ctx) {
				in := c.AlltoAllInts(tc.out(c.Rank(), tc.p))
				want := tc.want(c.Rank(), tc.p)
				for r := 0; r < tc.p; r++ {
					if len(in[r]) == 0 && len(want[r]) == 0 {
						continue
					}
					if !reflect.DeepEqual(in[r], want[r]) {
						t.Errorf("rank %d from %d: got %v, want %v", c.Rank(), r, in[r], want[r])
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlltoAllFloatsTable mirrors the int edge cases for the float
// payload path, on ExchangeFloats: each rank's send matrix is built
// for the call and never written again.
func TestAlltoAllFloatsTable(t *testing.T) {
	cases := []struct {
		name string
		p    int
		out  func(rank, p int) [][]float64
		want func(rank, p int) [][]float64
	}{
		{
			name: "single rank",
			p:    1,
			out: func(rank, p int) [][]float64 {
				return [][]float64{{1.5}}
			},
			want: func(rank, p int) [][]float64 {
				return [][]float64{{1.5}}
			},
		},
		{
			name: "empty rows and self-send",
			p:    3,
			out: func(rank, p int) [][]float64 {
				o := make([][]float64, p)
				o[rank] = []float64{float64(rank) + 0.25}
				return o
			},
			want: func(rank, p int) [][]float64 {
				w := make([][]float64, p)
				w[rank] = []float64{float64(rank) + 0.25}
				return w
			},
		},
		{
			name: "ring shift",
			p:    4,
			out: func(rank, p int) [][]float64 {
				o := make([][]float64, p)
				o[(rank+1)%p] = []float64{float64(rank)}
				return o
			},
			want: func(rank, p int) [][]float64 {
				w := make([][]float64, p)
				w[(rank+p-1)%p] = []float64{float64((rank + p - 1) % p)}
				return w
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(Zero(tc.p), func(c *Ctx) {
				in := c.ExchangeFloats(tc.out(c.Rank(), tc.p), nil)
				want := tc.want(c.Rank(), tc.p)
				for r := 0; r < tc.p; r++ {
					if len(in[r]) == 0 && len(want[r]) == 0 {
						continue
					}
					if !reflect.DeepEqual(in[r], want[r]) {
						t.Errorf("rank %d from %d: got %v, want %v", c.Rank(), r, in[r], want[r])
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlltoAllPayloadReuse pins the copy contract: callers may mutate
// their send buffers the moment AlltoAllInts returns, without
// corrupting what other ranks received.
func TestAlltoAllPayloadReuse(t *testing.T) {
	const p = 4
	err := Run(Zero(p), func(c *Ctx) {
		buf := make([]int, 3)
		out := make([][]int, p)
		for d := 0; d < p; d++ {
			out[d] = buf
		}
		for i := range buf {
			buf[i] = c.Rank()*10 + i
		}
		in := c.AlltoAllInts(out)
		for i := range buf {
			buf[i] = -1 // scribble over the shared send buffer
		}
		c.Barrier()
		for s := 0; s < p; s++ {
			for i, v := range in[s] {
				if v != s*10+i {
					t.Errorf("rank %d from %d slot %d: got %d, want %d", c.Rank(), s, i, v, s*10+i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesStress hammers the full collective surface from every
// rank concurrently for many generations. Its job is to give the race
// detector (CI's `go test -race` gate) something to chew on: the
// machine is goroutine-per-rank and every collective goes through the
// shared rendezvous, so ordering bugs there surface here.
func TestCollectivesStress(t *testing.T) {
	const p = 8
	const iters = 200
	err := Run(Zero(p), func(c *Ctx) {
		for it := 0; it < iters; it++ {
			want := p * (p - 1) / 2
			if s := c.SumInt(c.Rank()); s != want {
				panic("bad SumInt")
			}
			out := make([][]int, p)
			for d := 0; d < p; d++ {
				out[d] = []int{c.Rank(), it}
			}
			in := c.AlltoAllInts(out)
			for s := 0; s < p; s++ {
				if in[s][0] != s || in[s][1] != it {
					panic("bad AlltoAllInts payload")
				}
			}
			if g := c.AllGatherInt(c.Rank() * it); g[p-1] != (p-1)*it {
				panic("bad AllGatherInt")
			}
			bc := c.BroadcastInts(it%p, []int{it * 3})
			if bc[0] != it*3 {
				panic("bad BroadcastInts")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousSlotsUnderDelays is the proof for what the rendezvous
// and the all-to-all reuse instead of allocating: the two generations
// of deposit slots and each rank's two header slots. Ranks run
// collectives back to back with random stalls between leaving one and
// reading what it delivered, so a fast rank is two collectives ahead of
// a slow one's reads as often as the rule allows. The all-to-alls send
// out of two buffers used alternately. A slot recycled too early is a
// wrong value here or a data race under -race.
func TestRendezvousSlotsUnderDelays(t *testing.T) {
	const p, rounds = 4, 300
	err := Run(Zero(p), func(c *Ctx) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		stall := func() {
			if rng.Intn(3) == 0 {
				time.Sleep(time.Duration(rng.Intn(60)) * time.Microsecond)
			}
		}
		var fout [2][][]float64
		var iout [2][][]int
		for b := range fout {
			fout[b], iout[b] = make([][]float64, p), make([][]int, p)
			for d := range fout[b] {
				fout[b][d], iout[b][d] = make([]float64, 2), make([]int, 1)
			}
		}
		fin, iin := make([][]float64, p), make([][]int, p)
		for r := 0; r < rounds; r++ {
			for d := 0; d < p; d++ {
				fout[r%2][d][0], fout[r%2][d][1] = float64(c.Rank()), float64(r*p+d)
				iout[r%2][d][0] = r*p*p + c.Rank()*p + d
			}
			fgot := c.ExchangeFloats(fout[r%2], fin)
			stall()
			for s := 0; s < p; s++ {
				if fgot[s][0] != float64(s) || fgot[s][1] != float64(r*p+c.Rank()) {
					t.Errorf("rank %d round %d: floats from %d are %v", c.Rank(), r, s, fgot[s])
				}
			}
			igot := c.ExchangeInts(iout[r%2], iin)
			stall()
			for s := 0; s < p; s++ {
				if igot[s][0] != r*p*p+s*p+c.Rank() {
					t.Errorf("rank %d round %d: ints from %d are %v", c.Rank(), r, s, igot[s])
				}
			}
			if got, want := c.SumInt(r+c.Rank()), p*r+p*(p-1)/2; got != want {
				t.Errorf("rank %d round %d: SumInt %d, want %d", c.Rank(), r, got, want)
			}
			stall()
			if got := c.MaxFloat(float64(r * c.Rank())); got != float64(r*(p-1)) {
				t.Errorf("rank %d round %d: MaxFloat %v", c.Rank(), r, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ExchangeInts moves rows without a sender-side copy: the receiver
// sees the sender's own memory, empty rows arrive as nil, the headers
// land in the caller's in, and the charge equals AlltoAllInts'.
func TestExchangeIntsTransfersOwnership(t *testing.T) {
	const p = 3
	sent := make([][][]int, p) // sent[r] is rank r's out
	for r := range sent {
		sent[r] = make([][]int, p)
		for d := range sent[r] {
			if (r+d)%2 == 0 {
				sent[r][d] = []int{10*r + d, r, d}
			} else {
				sent[r][d] = []int{} // no message
			}
		}
	}
	err := Run(IPSC860(p), func(c *Ctx) {
		start := c.Clock()
		want := c.AlltoAllInts(sent[c.Rank()])
		copyCost := c.Clock() - start
		c.Barrier()

		start = c.Clock()
		in := make([][]int, p)
		got := c.ExchangeInts(sent[c.Rank()], in)
		if cost := c.Clock() - start; math.Abs(cost-copyCost) > 1e-12 {
			t.Errorf("rank %d: exchange charged %v, AlltoAllInts %v", c.Rank(), cost, copyCost)
		}
		if &got[0] != &in[0] {
			t.Errorf("rank %d: result is not the caller's header slice", c.Rank())
		}
		for s := 0; s < p; s++ {
			if !reflect.DeepEqual(got[s], want[s]) {
				t.Errorf("rank %d from %d: got %v, want %v", c.Rank(), s, got[s], want[s])
			}
			if len(got[s]) == 0 {
				if got[s] != nil {
					t.Errorf("rank %d from %d: empty row is not nil", c.Rank(), s)
				}
				continue
			}
			if &got[s][0] != &sent[s][c.Rank()][0] {
				t.Errorf("rank %d from %d: row does not share the sender's memory", c.Rank(), s)
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeIntsRejectsShortHeaders(t *testing.T) {
	err := Run(Zero(2), func(c *Ctx) {
		c.ExchangeInts(make([][]int, 2), make([][]int, 1))
	})
	if err == nil || !strings.Contains(err.Error(), "one slice per rank") {
		t.Fatalf("short in accepted: %v", err)
	}
}

// TestShareIntsIsUncharged pins the contract of the uncharged share:
// every rank leaves with root's values; called where the clocks are
// already equal (straight after a charged collective) it leaves every
// clock exactly where it was, to the last bit; called with unequal
// clocks it still synchronizes them to the maximum, like any
// collective, and adds nothing on top. The result is root's own
// memory on every rank.
func TestShareIntsIsUncharged(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		root := p / 2
		var rootData []int
		clocks := make([][4]float64, p)
		err := Run(IPSC860(p), func(c *Ctx) {
			c.Flops(1000 * (c.Rank() + 1)) // unequal clocks
			c.Barrier()                    // ... made equal by a charged collective
			clocks[c.Rank()][0] = c.Clock()
			var xs []int
			if c.Rank() == root {
				xs = []int{3, 1, 4, 1, 5, 9, 2, 6}
				rootData = xs
			} else {
				xs = []int{-1} // ignored
			}
			got := c.ShareInts(root, xs)
			clocks[c.Rank()][1] = c.Clock()
			if !reflect.DeepEqual(got, []int{3, 1, 4, 1, 5, 9, 2, 6}) {
				t.Errorf("P=%d rank %d: shared %v", p, c.Rank(), got)
			}
			c.Barrier() // rootData is published: every rank passed the share
			if &got[0] != &rootData[0] {
				t.Errorf("P=%d rank %d: result does not alias root's slice", p, c.Rank())
			}

			c.Flops(777 * (p - c.Rank())) // unequal again
			clocks[c.Rank()][2] = c.Clock()
			c.ShareInts(root, xs)
			clocks[c.Rank()][3] = c.Clock()
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		latest := 0.0
		for r := range clocks {
			latest = math.Max(latest, clocks[r][2])
		}
		for r := range clocks {
			if clocks[r][1] != clocks[r][0] {
				t.Errorf("P=%d rank %d: share moved an already-synchronized clock %v -> %v",
					p, r, clocks[r][0], clocks[r][1])
			}
			if clocks[r][3] != latest {
				t.Errorf("P=%d rank %d: share from unequal clocks ended at %v, want the latest arrival %v and no charge",
					p, r, clocks[r][3], latest)
			}
		}
	}
}

// TestGatherIsRootOnlyAllGather pins the root-only gather against the
// all-ranks one, run side by side in two machines from unequal clocks:
// root gets exactly AllGather's concatenation (empty contributions
// included), every other rank gets nil, and every rank — root or not —
// ends on the clock the all-ranks gather leaves it, to the last bit.
func TestGatherIsRootOnlyAllGather(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for root := 0; root < p; root += 2 {
			run := func(rootOnly bool) (ints [][]int, floats [][]float64, clocks []float64) {
				ints, floats, clocks = make([][]int, p), make([][]float64, p), make([]float64, p)
				err := Run(IPSC860(p), func(c *Ctx) {
					r := c.Rank()
					xs := make([]int, (r*3)%4) // rank 0 (and every fourth) contributes nothing
					fs := make([]float64, (r+1)%3)
					for i := range xs {
						xs[i] = 100*r + i
					}
					for i := range fs {
						fs[i] = float64(r) + float64(i)/8
					}
					c.Flops(500 * (r + 1))
					if rootOnly {
						ints[r], floats[r] = c.GatherInts(root, xs), c.GatherFloats(root, fs)
					} else {
						ints[r], floats[r] = c.AllGatherInts(xs), c.AllGatherFloatsInto(fs, nil)
					}
					clocks[r] = c.Clock()
				})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				return
			}
			wantI, wantF, wantClocks := run(false)
			gotI, gotF, gotClocks := run(true)
			for r := 0; r < p; r++ {
				if r != root {
					wantI[r], wantF[r] = nil, nil
				}
				if !reflect.DeepEqual(gotI[r], wantI[r]) || !reflect.DeepEqual(gotF[r], wantF[r]) {
					t.Errorf("P=%d root %d rank %d: gathered %v %v, want %v %v", p, root, r, gotI[r], gotF[r], wantI[r], wantF[r])
				}
				if gotClocks[r] != wantClocks[r] {
					t.Errorf("P=%d root %d rank %d: clock %v, all-ranks gather %v", p, root, r, gotClocks[r], wantClocks[r])
				}
			}
		}
	}
}

// TestGatherDepositsUnderDelays is the ownership rule's proof for the
// gathers that deposit without a copy (GatherInts, AllGatherFloatsInto):
// each rank sends out of two buffers used alternately and delivers into
// one recycled destination, with random stalls between leaving a gather
// and checking what it delivered. A deposit slot or a buffer recycled
// too early is a wrong value here or a data race under -race.
func TestGatherDepositsUnderDelays(t *testing.T) {
	const p, rounds = 4, 300
	err := Run(Zero(p), func(c *Ctx) {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		stall := func() {
			if rng.Intn(3) == 0 {
				time.Sleep(time.Duration(rng.Intn(60)) * time.Microsecond)
			}
		}
		var fout [2][]float64
		var iout [2][]int
		for b := range fout {
			fout[b], iout[b] = make([]float64, 2), make([]int, 1+c.Rank()%2)
		}
		var all []float64
		// Gathers of one element type run back to back, so a rank's
		// deposit slot of gather n is the one at stake in gather n+1.
		for r := 0; r < rounds; r++ {
			fout[r%2][0], fout[r%2][1] = float64(c.Rank()), float64(r)
			all = c.AllGatherFloatsInto(fout[r%2], all)
			stall()
			for s := 0; s < p; s++ {
				if all[2*s] != float64(s) || all[2*s+1] != float64(r) {
					t.Errorf("rank %d round %d: floats are %v", c.Rank(), r, all)
					break
				}
			}
			if r%2 == 0 {
				continue // two float gathers, then two int gathers
			}
			for _, q := range []int{r - 1, r} {
				iout[q%2][0] = q*p + c.Rank()
				root := q % p
				got := c.GatherInts(root, iout[q%2])
				stall()
				if (got != nil) != (c.Rank() == root) {
					t.Errorf("rank %d round %d: root %d, gathered %v", c.Rank(), q, root, got)
				}
				for s, at := 0, 0; s < p && got != nil; s, at = s+1, at+1+s%2 {
					if got[at] != q*p+s {
						t.Errorf("rank %d round %d: ints are %v", c.Rank(), q, got)
						break
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
