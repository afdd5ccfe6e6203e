package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
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
	methods := []partition.Method{partition.MethodMultilevel, partition.MethodStream, partition.MethodRSB, partition.MethodBlock}
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

// encodeRequest and encodeResponse render one payload on its own, the
// shape the frame layer copies in.
func encodeRequest(req *Request) []byte    { return appendRequest(nil, req) }
func encodeResponse(resp *Response) []byte { return appendResponse(nil, resp) }

// recConn records every Write.
type recConn struct {
	net.Conn
	wrote [][]byte
}

func (c *recConn) Write(b []byte) (int, error) {
	c.wrote = append(c.wrote, bytes.Clone(b))
	return c.Conn.Write(b)
}

// TestClientFramesInPlace pins the client's in-place request encoding
// and its reused response buffer. Every request frame it writes is
// byte for byte a payload encoded apart and then framed, and two of
// them are the version-3 frames recorded before the client encoded in
// place. Every response it returns still holds its own values after
// later, longer and shorter, responses have gone through the buffer.
func TestClientFramesInPlace(t *testing.T) {
	e1, e2 := LoadGraph(3, 500, 6)
	golden := []struct {
		req *Request
		hex string
	}{
		{&Request{NNode: 300, NParts: 8, Procs: 4, Spec: partition.Spec{Method: partition.MethodMultilevel, Seed: 7, Imbalance: 0.05},
			E1: []int{0, 1, 299, 64, 8191, 8192}, E2: []int{1, 2, 0, 63, 100, 5}},
			"c40503010000003801ac0208040a4d554c54494c4556454c0000073fa999999999999a000000000000000000060002d6048001fe7f808001060204007ec8010a"},
		{&Request{NNode: 500, NParts: 8, Procs: 4, Spec: partition.Spec{Method: partition.MethodMultilevel, Seed: 7}, E1: e1, E2: e2}, ""},
		{&Request{NNode: 300, NParts: 3, Spec: partition.Spec{Method: partition.MethodStream, Restreams: 2, BalanceSlack: 0.1, CoarsenTo: -1},
			Base: 0xfeedface12345678, Delta: []EdgeRewire{{Edge: 3, NewEnd: 7}, {Edge: 200, NewEnd: 299}}},
			"c40503010000003108ac0203000653545245414d0100000000000000000000043fb999999999999af8acd191e1d9fef6fe01020307c801ab02"},
		{&Request{NNode: 500, NParts: 2, Spec: partition.Spec{Method: partition.MethodBlock}, E1: e1[:7], E2: e2[:7]}, ""},
	}
	const wantResp = "c405030200000021bc1500ac023fd00000000000003ff800000000000007000e7e800101fe7f808001"
	if got := fmt.Sprintf("%x", frame(msgOK, encodeResponse(&Response{Fingerprint: 0xabc, Served: ServedHit, Cut: 300,
		VirtualS: 0.25, WallMS: 1.5, Part: []int{0, 7, 63, 64, -1, 8191, 8192}}))); got != wantResp {
		t.Errorf("response frame %s, version 3 wrote %s", got, wantResp)
	}

	near, far := net.Pipe()
	rc := &recConn{Conn: near}
	cl := NewClient(rc)
	defer cl.Close()
	// The far end answers request i with a part vector of a length that
	// goes up and down, so the client's buffer is both grown and reused.
	lens := []int{2000, 10, 3000, 1}
	answer := func(i int) *Response {
		part := make([]int, lens[i])
		for v := range part {
			part[v] = (v*7 + i) % 100
		}
		return &Response{Fingerprint: Fingerprint(i + 1), Served: Served(i % 4), Cut: i, Part: part}
	}
	go func() {
		br := bufio.NewReader(far)
		for i := 0; ; i++ {
			if _, _, err := readFrame(br, maxFrame, nil); err != nil {
				return
			}
			if _, err := far.Write(frame(msgOK, encodeResponse(answer(i)))); err != nil {
				return
			}
		}
	}()
	var got []*Response
	for i, g := range golden {
		resp, err := cl.Do(context.Background(), g.req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got = append(got, resp)
		if want := frame(msgPartition, encodeRequest(g.req)); !bytes.Equal(rc.wrote[i], want) {
			t.Errorf("request %d: the client wrote % x, framing the payload apart gives % x", i, rc.wrote[i], want)
		}
		if g.hex != "" && fmt.Sprintf("%x", rc.wrote[i]) != g.hex {
			t.Errorf("request %d: the client wrote %x, version 3 wrote %s", i, rc.wrote[i], g.hex)
		}
	}
	for i, resp := range got {
		if !reflect.DeepEqual(resp, answer(i)) {
			t.Errorf("response %d changed after later responses went through the client's buffer", i)
		}
	}
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
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), 1<<20, nil)
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
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), 1<<20, nil); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported protocol version %d", v)) {
			t.Errorf("version-%d frame: err = %v, want unsupported protocol version", v, err)
		}
	}

	// And the good frame parses.
	ty, payload, err := readFrame(bufio.NewReader(bytes.NewReader(good)), 1<<20, nil)
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
