package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chaos/internal/partition"
	"chaos/internal/xrand"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := map[string]*Request{
		"upload full": {
			NNode: 10, NParts: 3, Procs: 2,
			Spec: partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: 50,
				ParallelThreshold: 256, Seed: 99, Imbalance: 0.07},
			E1: []int{0, 1, 2, 8},
			E2: []int{1, 2, 3, 9},
		},
		"delta": {
			NNode: 10, NParts: 2, Procs: 2,
			Spec:  partition.Spec{Method: partition.MethodMultilevel},
			Base:  Fingerprint(0xfeedface),
			Delta: []EdgeRewire{{Edge: 3, NewEnd: 7}, {Edge: 0, NewEnd: 9}},
		},
		"negative tuning": {
			NNode: 4, NParts: 2,
			Spec: partition.Spec{Method: partition.MethodMultilevel, CoarsenTo: -1, ParallelThreshold: -1},
			E1:   []int{0}, E2: []int{1},
		},
		"stream knobs": {
			NNode: 6, NParts: 2,
			Spec: partition.Spec{Method: partition.MethodStream, Restreams: 3, BalanceSlack: 0.1, Seed: 7},
			E1:   []int{0, 1}, E2: []int{1, 2},
		},
	}
	// Every Request field survives the codec, whatever its value:
	// negative knobs, the full uint64 seed and base range, uploads and
	// deltas. The generator draws exactly these fields, so a field added
	// to Request must be added here too.
	var fields []string
	for rt, i := reflect.TypeFor[Request](), 0; i < rt.NumField(); i++ {
		fields = append(fields, rt.Field(i).Name)
	}
	if want := []string{"NNode", "NParts", "Procs", "Spec", "E1", "E2", "Base", "Delta"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("Request fields %v; the generator below draws %v", fields, want)
	}
	rng := xrand.New(33)
	methods := []partition.Method{partition.MethodMultilevel, partition.MethodStream, partition.MethodRSB, partition.MethodKL}
	ints := func(n, hi int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(hi)
		}
		return xs
	}
	for i := 0; i < 200; i++ {
		sp := partition.Spec{Method: methods[rng.Intn(len(methods))]}
		if rng.Intn(2) == 0 {
			sp.CoarsenTo = rng.Intn(2001) - 1000
		}
		if rng.Intn(2) == 0 {
			sp.ParallelThreshold = rng.Intn(8193) - 4096
		}
		if rng.Intn(2) == 0 {
			sp.Seed = rng.Uint64()
		}
		if rng.Intn(2) == 0 {
			sp.Imbalance = rng.Float64() - 0.5
		}
		if rng.Intn(2) == 0 {
			sp.Restreams = rng.Intn(41) - 20
		}
		if rng.Intn(2) == 0 {
			sp.BalanceSlack = rng.Float64()
		}
		req := &Request{NNode: 1 + rng.Intn(1<<20), NParts: 1 + rng.Intn(64), Procs: rng.Intn(65), Spec: sp}
		if rng.Intn(2) == 0 {
			m := 1 + rng.Intn(40)
			req.E1, req.E2 = ints(m, req.NNode), ints(m, req.NNode)
		} else {
			req.Base = Fingerprint(rng.Uint64())
			for range rng.Intn(4) {
				req.Delta = append(req.Delta, EdgeRewire{Edge: rng.Intn(1 << 24), NewEnd: rng.Intn(req.NNode)})
			}
		}
		cases[fmt.Sprintf("random request %d", i)] = req
	}
	for name, req := range cases {
		got, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Fingerprint: Fingerprint(0xabc123),
		Served:      ServedWarm,
		Cut:         17,
		VirtualS:    0.125,
		WallMS:      3.5,
		Part:        []int{0, 1, 1, 0, 2},
	}
	got, err := decodeResponse(encodeResponse(resp))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}
}

// TestErrorRoundTrip pins the typed-error contract: errors.Is works
// across the wire for every sentinel.
func TestErrorRoundTrip(t *testing.T) {
	cases := []struct {
		in     error
		target error
	}{
		{fmt.Errorf("%w: queue full", ErrOverloaded), ErrOverloaded},
		{fmt.Errorf("%w deadbeef", ErrUnknownGraph), ErrUnknownGraph},
		{fmt.Errorf("%w: NNode 0", ErrBadRequest), ErrBadRequest},
		{fmt.Errorf("abandoned: %w", context.Canceled), context.Canceled},
		{fmt.Errorf("slow: %w", context.DeadlineExceeded), context.Canceled},
	}
	for _, tc := range cases {
		out := decodeError(encodeError(tc.in))
		if !errors.Is(out, tc.target) {
			t.Errorf("decode(encode(%v)) = %v, not errors.Is %v", tc.in, out, tc.target)
		}
		if !strings.Contains(out.Error(), "service:") {
			t.Errorf("error %q lost its service prefix", out)
		}
	}
	// Unknown internal errors surface with their detail, untyped.
	out := decodeError(encodeError(errors.New("disk on fire")))
	if !strings.Contains(out.Error(), "disk on fire") {
		t.Errorf("internal error detail lost: %q", out)
	}
}

func frame(t msgType, payload []byte) []byte {
	return appendFrame(nil, t, payload)
}

// TestReadFrameRejects sweeps the frame-layer error surface:
// truncated, oversized, and garbage frames all error without panic.
func TestReadFrameRejects(t *testing.T) {
	good := frame(msgOK, []byte{1, 2, 3})
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:5],
		"bad magic":        append([]byte{0xff, 0x05}, good[2:]...),
		"bad version":      {magic0, magic1, 99, byte(msgOK), 0, 0, 0, 0},
		"version 1":        {magic0, magic1, 1, byte(msgPartition), 0, 0, 0, 0},
		"version 2":        append([]byte{magic0, magic1, 2}, frame(msgPartition, encodeRequest(&Request{NNode: 2, NParts: 2, E1: []int{0}, E2: []int{1}}))[3:]...),
		"bad type":         {magic0, magic1, wireVersion, 77, 0, 0, 0, 0},
		"truncated body":   good[:len(good)-2],
		"oversized length": binary.BigEndian.AppendUint32([]byte{magic0, magic1, wireVersion, byte(msgOK)}, 1<<30),
	}
	for name, raw := range cases {
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), 1<<20)
		if err == nil {
			t.Errorf("%s: readFrame accepted a malformed frame", name)
		}
	}
	// A version-1 client laid its request out with five more spec
	// fields, and a version-2 one could set the geometry, load and
	// backend flags; each must get the typed version error, not a
	// misparse.
	for _, v := range []int{1, 2} {
		raw := cases[fmt.Sprintf("version %d", v)]
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), 1<<20); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported protocol version %d", v)) {
			t.Errorf("version-%d frame: err = %v, want unsupported protocol version", v, err)
		}
	}

	// And the good frame parses.
	ty, payload, err := readFrame(bufio.NewReader(bytes.NewReader(good)), 1<<20)
	if err != nil || ty != msgOK || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("good frame: type=%v payload=%v err=%v", ty, payload, err)
	}
}

// TestDecodeRejectsTrailingGarbage pins the full-consumption rule.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	p := encodeResponse(&Response{Part: []int{0, 1}})
	if _, err := decodeResponse(append(p, 0xee)); err == nil {
		t.Fatalf("decodeResponse accepted trailing garbage")
	}
	q := encodeRequest(&Request{NNode: 2, NParts: 2, Spec: partition.Spec{Method: "KL"}, E1: []int{0}, E2: []int{1}})
	if _, err := decodeRequest(append(q, 0x01)); err == nil {
		t.Fatalf("decodeRequest accepted trailing garbage")
	}
}

// TestDecodeOverAllocationGuard pins the count guard: a payload
// declaring a huge element count over a tiny body must fail before
// allocating, not allocate the declared size.
func TestDecodeOverAllocationGuard(t *testing.T) {
	// Hand-build a response payload whose part-count claims 2^40
	// entries with no bytes behind it.
	var w wbuf
	w.u64(1)        // fingerprint
	w.byteVal(0)    // served
	w.u64(0)        // cut
	w.f64(0)        // virtualS
	w.f64(0)        // wallMS
	w.u64(1 << 40)  // part count — absurd
	w.byteVal(0x7f) // one byte of "data"
	// The guard must fail the count against the remaining bytes before
	// make([]int, n) — a 2^40-element allocation would be 8 TiB and
	// kill the process, so surviving with an error IS the assertion.
	if _, err := decodeResponse(w.b); err == nil {
		t.Fatalf("decodeResponse accepted a 2^40 element count")
	}

	// Same shape on the request side: a delta count with no body.
	var q wbuf
	q.byteVal(flagDelta)
	q.u64(4) // nnode
	q.u64(2) // nparts
	q.u64(0) // procs
	q.str("KL")
	q.i64(0)
	q.i64(0)
	q.i64(0)
	q.byteVal(0)
	q.u64(0)
	q.f64(0)
	q.u64(1)       // base fingerprint
	q.u64(1 << 50) // delta count — absurd
	if _, err := decodeRequest(q.b); err == nil {
		t.Fatalf("decodeRequest accepted a 2^50 delta count")
	}
}
