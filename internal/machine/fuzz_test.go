package machine

import (
	"reflect"
	"testing"
)

// a2aCase deterministically derives rank's AlltoAll send matrix from
// the fuzz bytes. Every rank starts its cursor at a rank-dependent
// offset and reads with wraparound, so any rank can locally rebuild
// any other rank's matrix to know what it should have received.
// Lengths cycle through 0..4, which exercises empty sends (including
// all-empty machines), self-sends, and the max-rank row.
func a2aCase(data []byte, rank, p int) [][]int {
	if len(data) == 0 {
		data = []byte{0}
	}
	pos := (rank * 31) % len(data)
	next := func() byte {
		b := data[pos]
		pos = (pos + 1) % len(data)
		return b
	}
	out := make([][]int, p)
	for d := 0; d < p; d++ {
		n := int(next()) % 5
		for i := 0; i < n; i++ {
			out[d] = append(out[d], int(int8(next()))*(rank+1)+d)
		}
	}
	return out
}

// FuzzAlltoAll drives the copying AlltoAllInts, the
// ownership-transfer ExchangeInts/ExchangeFloats and the uncharged
// ShareInts with fuzzed payload shapes (payload sizes, empty sends,
// self-sends, max-rank edges) and checks the transpose
// property against a locally rebuilt expectation. ExchangeInts runs
// twice out of the same send and receive buffers, overwritten in
// between as its ownership rule allows: after a later collective.
// ExchangeFloats runs three times back to back out of two send buffers
// used alternately — the fewest the rule allows, and what
// schedule-owned transport does — with no collective of the test's own
// in between. ShareInts hands out a fuzz-chosen root's flattened send
// matrix, which every rank reads once straight away and once more
// after a later collective (the slice is root's memory, good for as
// long as root leaves it alone); it must not move a clock. The seed corpus encodes the shapes of the
// table-driven cases in collectives_test.go.
func FuzzAlltoAll(f *testing.F) {
	f.Add([]byte{}, byte(0))                       // single rank, empty
	f.Add([]byte{3, 7, 8, 9}, byte(0))             // single rank self-send
	f.Add([]byte{0, 0, 0, 0}, byte(3))             // all rows empty at P=4
	f.Add([]byte{1, 42}, byte(3))                  // sparse self-and-neighbor sends
	f.Add([]byte{4, 1, 2, 3, 4, 2, 5, 6}, byte(7)) // dense varying lengths at P=8
	f.Fuzz(func(t *testing.T, data []byte, pb byte) {
		p := 1 + int(pb)%8
		err := Run(Zero(p), func(c *Ctx) {
			in := c.AlltoAllInts(a2aCase(data, c.Rank(), p))
			fo := make([][]float64, p)
			for d, xs := range a2aCase(data, c.Rank(), p) {
				for _, x := range xs {
					fo[d] = append(fo[d], float64(x)/2)
				}
			}
			fin := c.ExchangeFloats(fo, nil) // fo is never written again
			xo, xin := a2aCase(data, c.Rank(), p), make([][]int, p)
			for round := 0; round < 2; round++ {
				got := c.ExchangeInts(xo, xin)
				for s := 0; s < p; s++ {
					want := a2aCase(data, s, p)[c.Rank()]
					if len(got[s]) != len(want) {
						t.Errorf("rank %d exchange %d from %d: got %v, want %v",
							c.Rank(), round, s, got[s], want)
						continue
					}
					for i, x := range want {
						if got[s][i] != x+round {
							t.Errorf("rank %d exchange %d from %d slot %d: got %d, want %d",
								c.Rank(), round, s, i, got[s][i], x+round)
						}
					}
				}
				c.Barrier() // the later collective: xo is this rank's again
				for _, xs := range xo {
					for i := range xs {
						xs[i]++
					}
				}
			}
			// Two float send buffers, alternated: round r's payload is
			// the int case's plus r, written just before it is sent.
			var fxo [2][][]float64
			for b := range fxo {
				fxo[b] = make([][]float64, p)
				for d, xs := range a2aCase(data, c.Rank(), p) {
					fxo[b][d] = make([]float64, len(xs))
				}
			}
			fxin := make([][]float64, p)
			for round := 0; round < 3; round++ {
				out := fxo[round%2]
				for d, xs := range a2aCase(data, c.Rank(), p) {
					for i, x := range xs {
						out[d][i] = float64(x + round)
					}
				}
				got := c.ExchangeFloats(out, fxin)
				for s := 0; s < p; s++ {
					want := a2aCase(data, s, p)[c.Rank()]
					if len(got[s]) != len(want) {
						t.Errorf("rank %d float exchange %d from %d: got %v, want %v",
							c.Rank(), round, s, got[s], want)
						continue
					}
					for i, x := range want {
						if got[s][i] != float64(x+round) {
							t.Errorf("rank %d float exchange %d from %d slot %d: got %v, want %d",
								c.Rank(), round, s, i, got[s][i], x+round)
						}
					}
				}
			}
			root := len(data) % p
			flat := func(rows [][]int) (xs []int) {
				for _, row := range rows {
					xs = append(xs, row...)
				}
				return xs
			}
			before := c.Clock()
			shared := c.ShareInts(root, flat(a2aCase(data, c.Rank(), p)))
			if c.Clock() != before {
				t.Errorf("rank %d: ShareInts moved the clock %v -> %v", c.Rank(), before, c.Clock())
			}
			for round := 0; round < 2; round++ {
				if want := flat(a2aCase(data, root, p)); !reflect.DeepEqual(shared, want) && len(shared)+len(want) > 0 {
					t.Errorf("rank %d read %d of the share from %d: got %v, want %v",
						c.Rank(), round, root, shared, want)
				}
				c.Barrier()
			}
			for s := 0; s < p; s++ {
				want := a2aCase(data, s, p)[c.Rank()]
				if len(want) == 0 && len(in[s]) == 0 {
					continue
				}
				if !reflect.DeepEqual(in[s], want) {
					t.Errorf("rank %d from %d: got %v, want %v",
						c.Rank(), s, in[s], want)
				}
				for i, x := range want {
					if fin[s][i] != float64(x)/2 {
						t.Errorf("rank %d floats from %d slot %d: got %v",
							c.Rank(), s, i, fin[s][i])
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
