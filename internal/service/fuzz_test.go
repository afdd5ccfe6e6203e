package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"chaos/internal/partition"
)

// FuzzWireFrame throws arbitrary bytes at the full inbound decode
// path — frame layer, then every payload decoder — and pins the
// defensive contract: truncated, oversized or garbage frames must
// come back as errors, never as panics, and never as allocations
// larger than the frame itself (the count guards fail a declared
// element count against the bytes actually present before any make).
// Decoded requests must also survive server-side validation without
// panicking, whatever they claim to contain.
func FuzzWireFrame(f *testing.F) {
	// Seed corpus: one well-formed frame of each message type, plus
	// assorted malformations.
	req := &Request{
		NNode: 8, NParts: 2, Procs: 2,
		Spec: partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 4, Seed: 1},
		E1:   []int{0, 1, 2}, E2: []int{1, 2, 3},
	}
	f.Add(appendFrame(nil, msgPartition, encodeRequest(req)))
	f.Add(appendFrame(nil, msgPartition, encodeRequest(&Request{
		NNode: 8, NParts: 2, Base: 0xbeef, Delta: []EdgeRewire{{Edge: 1, NewEnd: 5}},
		Spec: partition.Spec{Method: partition.MethodMultilevel},
	})))
	// Flag bits this version does not define: version 2's geometry and
	// backend bits, and the top bit.
	for _, bit := range []byte{1 << 1, 1 << 4, 1 << 7} {
		p := encodeRequest(req)
		p[0] |= bit
		f.Add(appendFrame(nil, msgPartition, p))
	}
	bad := *req
	bad.Spec.Imbalance = math.NaN()
	f.Add(appendFrame(nil, msgPartition, encodeRequest(&bad)))
	f.Add(appendFrame(nil, msgOK, encodeResponse(&Response{Part: []int{0, 1, 1, 0}, Cut: 2})))
	f.Add(appendFrame(nil, msgError, encodeError(ErrOverloaded)))
	f.Add([]byte{})
	f.Add(append([]byte{magic0, magic1, 2}, appendFrame(nil, msgPartition, encodeRequest(req))[3:]...))
	f.Add([]byte{magic0, magic1, wireVersion, byte(msgPartition), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{magic0, magic1, wireVersion, byte(msgOK), 0, 0, 0, 4, 1, 2})
	f.Add(bytes.Repeat([]byte{0xC4}, 64))

	const maxFrame = 1 << 20
	srv := New(Options{Workers: 1, CacheBytes: 1 << 20})
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, raw []byte) {
		br := bufio.NewReader(bytes.NewReader(raw))
		ty, payload, err := readFrame(br, maxFrame, nil)
		if err != nil {
			return // rejected at the frame layer: exactly right
		}
		if len(payload) > maxFrame {
			t.Fatalf("readFrame returned a %d-byte payload past the %d cap", len(payload), maxFrame)
		}
		// Whatever the type says, every decoder must hold the
		// no-panic/no-overallocation line on this payload.
		if r, err := decodeRequest(payload); err == nil {
			// A structurally valid request must then pass through
			// server validation without panicking — admitRequest is the
			// semantic firewall for NNode/NParts/Procs/edge ranges.
			if ty == msgPartition {
				srv.admitRequest(r)
			}
		}
		decodeResponse(payload)
		decodeError(payload)
	})
}

// FuzzVerifiedCache decodes a byte string into a short request program
// over tiny graphs — uploads, repeats, deltas, repeats of a delta,
// deltas against unnamed answers, concurrent bursts — and runs it under
// the 2-bit name function, where unrelated graphs share names
// constantly, once with an unbounded cache and once with one that holds
// a few graphs, so evictions and re-bound names interleave with the
// derivation memo's lookups, each in-process and over the wire, where
// hits are sent as stored frames. Every answer must be a partition of its
// request's own content with the recounted cut, every reused answer one
// that a compute of identical content produced, and a delta against an
// unnamed answer ErrUnknownGraph.
func FuzzVerifiedCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 3, 1, 4, 0})
	f.Add([]byte{0, 5, 3, 1, 0, 4, 2, 1, 5, 3, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 6, 1, 0, 7, 0, 2, 1, 1, 9, 2, 0, 3, 4, 7})
	// upload; delta; repeat it twice; three more uploads; repeat again
	f.Add([]byte{0, 0, 0, 0, 2, 0, 1, 0, 5, 7, 0, 6, 0, 1, 1, 6, 0, 0, 0, 0, 3, 0, 0, 5, 0, 0, 7, 0, 6, 0, 1})
	ps := newProgramSet(24, 4,
		shape{spec: partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 4, Seed: 1}, nparts: 2, procs: 2},
		shape{spec: partition.Spec{Method: partition.MethodBlock}, nparts: 3, procs: 1})
	f.Fuzz(func(t *testing.T, program []byte) {
		for _, capBytes := range []int64{-1, 4 << 10} {
			for _, wire := range []bool{false, true} {
				s := New(Options{Workers: 2, CacheBytes: capBytes})
				s.fingerprint = twoBitName
				do := s.Do
				if wire {
					do = serveWire(t, s)
				}
				runProgram(t, s, do, ps, &chooser{data: program}, 12)
				s.Close()
			}
		}
	})
}

// FuzzIntsCodec pins the codec's inline small-int paths to the
// encoding/binary loops they stand in for. Decoding arbitrary bytes
// with rbuf.ints and with a loop over binary.Varint gives equal slices,
// equal errors and an equal final offset; wbuf.ints writes exactly
// binary.AppendVarint's bytes for every value, the one- and two-byte
// boundaries and the int extremes included, and reads them back.
func FuzzIntsCodec(f *testing.F) {
	f.Add([]byte{3, 0x7e, 0x80, 0x01, 0xff, 0x7f}, int64(0))
	f.Add([]byte{2, 0x81, 0x02, 0x80, 0x7e}, int64(128))
	f.Add([]byte{2, 0x80}, int64(63))
	f.Add([]byte{2, 0x80, 0x80, 0x00, 0x01}, int64(-64))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, int64(8191))
	f.Add([]byte{4, 0x80, 0x80}, int64(-8192))
	for _, x := range []int64{64, -65, 8192, -8193, math.MinInt64, math.MaxInt64} {
		f.Add([]byte{0}, x)
	}
	// A long one-byte run, then a three-byte varint and one more run; a
	// one-byte run cut off before its declared count.
	run := bytes.Repeat([]byte{0x7f, 0x00, 0x01}, 40)
	f.Add(slices.Concat([]byte{0xf1, 0x01}, run, []byte{0x80, 0x80, 0x01}, run[:120]), int64(1))
	f.Add(slices.Concat([]byte{0x96, 0x01}, run[:70]), int64(-1))
	f.Fuzz(func(t *testing.T, raw []byte, x int64) {
		fast, ref := &rbuf{b: raw}, &rbuf{b: raw}
		got := fast.ints()
		n := ref.count(1)
		var want []int
		if ref.err == nil && n > 0 {
			want = make([]int, n)
			for i := range want {
				want[i] = int(ref.i64())
			}
			if ref.err != nil {
				want = nil
			}
		}
		if !slices.Equal(got, want) || (got == nil) != (want == nil) || fmt.Sprint(fast.err) != fmt.Sprint(ref.err) || fast.off != ref.off {
			t.Fatalf("ints(% x) = %v, err %v, off %d; binary.Varint loop: %v, err %v, off %d",
				raw, got, fast.err, fast.off, want, ref.err, ref.off)
		}

		xs := []int{int(x), int(x) + 1, int(x) - 1, -int(x), int(x) >> 7, int(x) >> 14, int(x) >> 50}
		for _, b := range raw {
			xs = append(xs, int(int8(b))<<(b%16))
		}
		var w wbuf
		w.ints(xs)
		wantBytes := binary.AppendUvarint(nil, uint64(len(xs)))
		for _, v := range xs {
			wantBytes = binary.AppendVarint(wantBytes, int64(v))
		}
		if !bytes.Equal(w.b, wantBytes) {
			t.Fatalf("wbuf.ints(%v) = % x, binary.AppendVarint: % x", xs, w.b, wantBytes)
		}
		back := &rbuf{b: w.b}
		if rt := back.ints(); !slices.Equal(rt, xs) || back.done() != nil {
			t.Fatalf("ints round trip of %v: %v, err %v", xs, rt, back.done())
		}
	})
}
