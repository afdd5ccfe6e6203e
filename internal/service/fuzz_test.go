package service

import (
	"bufio"
	"bytes"
	"math"
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
		Coords:        [][]float64{{0, 1, 2, 3, 4, 5, 6, 7}},
		VertexWeights: []float64{1, 1, 1, 1, 1, 1, 1, 1},
	}
	f.Add(appendFrame(nil, msgPartition, encodeRequest(req)))
	f.Add(appendFrame(nil, msgPartition, encodeRequest(&Request{
		NNode: 8, NParts: 2, Base: 0xbeef, Delta: []EdgeRewire{{Edge: 1, NewEnd: 5}},
		Spec: partition.Spec{Method: partition.MethodMultilevel},
	})))
	bad := *req
	bad.Coords = [][]float64{{0, 1, math.NaN(), 3, 4, math.Inf(1), 6, 7}}
	f.Add(appendFrame(nil, msgPartition, encodeRequest(&bad)))
	bad = *req
	bad.VertexWeights = []float64{1, -1, math.Inf(-1), math.NaN(), 1, 1, 1, 1}
	f.Add(appendFrame(nil, msgPartition, encodeRequest(&bad)))
	f.Add(appendFrame(nil, msgOK, encodeResponse(&Response{Part: []int{0, 1, 1, 0}, Cut: 2})))
	f.Add(appendFrame(nil, msgError, encodeError(ErrOverloaded)))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, wireVersion, byte(msgPartition), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{magic0, magic1, wireVersion, byte(msgOK), 0, 0, 0, 4, 1, 2})
	f.Add(bytes.Repeat([]byte{0xC4}, 64))

	const maxFrame = 1 << 20
	srv := New(Options{Workers: 1, CacheBytes: 1 << 20})
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, raw []byte) {
		br := bufio.NewReader(bytes.NewReader(raw))
		ty, payload, err := readFrame(br, maxFrame)
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
// over tiny graphs — uploads, repeats, deltas, deltas against unnamed
// answers, concurrent bursts — and runs it under the 2-bit name
// function, where unrelated graphs share names constantly. Every answer
// must be a partition of its request's own content with the recounted
// cut, every reused answer one that a compute of identical content
// produced, and a delta against an unnamed answer ErrUnknownGraph.
func FuzzVerifiedCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 3, 1, 4, 0})
	f.Add([]byte{0, 5, 3, 1, 0, 4, 2, 1, 5, 3, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 6, 1, 0, 7, 0, 2, 1, 1, 9, 2, 0, 3, 4, 7})
	ps := newProgramSet(24, 4,
		shape{spec: partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 4, Seed: 1}, nparts: 2, procs: 2},
		shape{spec: partition.Spec{Method: partition.MethodBlock}, nparts: 3, procs: 1})
	f.Fuzz(func(t *testing.T, program []byte) {
		s := New(Options{Workers: 2, CacheBytes: -1})
		defer s.Close()
		s.fingerprint = twoBitName
		runProgram(t, s, ps, &chooser{data: program}, 12)
	})
}
