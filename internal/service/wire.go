package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"chaos/internal/partition"
)

// This file is the chaosd wire protocol: length-prefixed binary frames
// over a byte stream. Every frame is
//
//	magic[2] version[1] type[1] length[4, big-endian] payload[length]
//
// and the payload is a flat varint/fixed64 encoding of one message.
// The codec is defensive by construction: a frame is rejected before
// its payload is read when the header is malformed or the declared
// length exceeds the frame cap, and every count inside a payload is
// bounds-checked against the bytes that remain before anything is
// allocated, so truncated, oversized or garbage frames produce
// descriptive errors — never a panic and never an allocation larger
// than the frame itself (FuzzWireFrame pins this).

const (
	magic0      = 0xC4
	magic1      = 0x05
	wireVersion = 3

	// headerLen is the fixed frame header size.
	headerLen = 8

	// maxFrame caps a frame's payload length (64 MiB). Both sides
	// reject longer frames before allocating.
	maxFrame = 64 << 20

	// maxMethodLen bounds the partitioner method name on the wire.
	maxMethodLen = 128
	// maxErrorLen bounds an error detail string on the wire.
	maxErrorLen = 4096
)

// msgType discriminates frame payloads.
type msgType byte

const (
	msgPartition msgType = 1 // client → server: partition request
	msgOK        msgType = 2 // server → client: partition response
	msgError     msgType = 3 // server → client: typed error
)

// Request flag bits; decodeRequest rejects any other bit.
const (
	flagEdges = 1 << 0 // full edge-list upload
	flagDelta = 1 << 3 // churn delta against a base fingerprint
)

// Fingerprint is the server-issued name of a graph in its cache: a
// stable 64-bit hash over the canonical graph payload (vertex count
// and edge lists). Identical graphs fingerprint
// identically across clients and processes, which is what lets one
// client's cold run serve another client's warm request. Distinct
// graphs may share a fingerprint; the server verifies content before
// reusing anything, and 0 names no graph.
type Fingerprint uint64

func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// EdgeRewire is one element of a churn delta: edge Edge's second
// endpoint is re-pointed at vertex NewEnd, the mesh-adaptation move of
// the adaptive-mesh study (experiments.AdaptiveStudy).
type EdgeRewire struct {
	Edge   int
	NewEnd int
}

// Request is one partitioning request. The graph arrives either as a
// full content upload (E1/E2) or as a churn delta against a base
// fingerprint the server has already seen; the latter is what unlocks
// the warm, ladder-reusing path. The graph is LINK-only, so a method
// that needs GEOMETRY (RCB) is rejected with ErrBadRequest.
type Request struct {
	// NNode is the global vertex count of the graph.
	NNode int
	// NParts is the number of parts to produce.
	NParts int
	// Procs is the SPMD machine width the partitioner runs at
	// (0 = NParts). It is part of the cache key: the distributed
	// multilevel path's answer depends on it.
	Procs int
	// Spec selects and tunes the partitioner.
	Spec partition.Spec

	// E1/E2 are the edge endpoint lists of a full upload.
	E1, E2 []int

	// Base and Delta describe a churn request: the graph is the one
	// fingerprinted Base with Delta applied. Mutually exclusive with a
	// full upload.
	Base  Fingerprint
	Delta []EdgeRewire
}

// Served reports how a response was produced.
type Served byte

const (
	// ServedHit: the finished partition was already cached.
	ServedHit Served = iota
	// ServedCold: a full cold partitioner run.
	ServedCold
	// ServedWarm: an incremental repartition off a retained ladder.
	ServedWarm
	// ServedShared: batched onto an identical in-flight request
	// (singleflight) — the herd computed once.
	ServedShared
)

func (s Served) String() string {
	switch s {
	case ServedHit:
		return "hit"
	case ServedCold:
		return "cold"
	case ServedWarm:
		return "warm"
	case ServedShared:
		return "shared"
	default:
		return fmt.Sprintf("Served(%d)", byte(s))
	}
}

// Response is the answer to one Request.
type Response struct {
	// Fingerprint names the graph that was partitioned (after delta
	// application) for use as Request.Base. 0 means this graph has no
	// name: its fingerprint is bound to a different graph in the
	// server's cache, so the answer was not cached, and a delta must
	// re-send the graph as a full upload (a delta against 0 gets
	// ErrUnknownGraph).
	Fingerprint Fingerprint
	// Served reports how the request was satisfied.
	Served Served
	// Cut is the global edge cut of the partition.
	Cut int
	// VirtualS is the virtual partitioning time of the run that
	// produced the cached answer (simulated seconds; 0 on cache hits'
	// re-serves it is the original run's figure).
	VirtualS float64
	// WallMS is the host wall time of the producing run in
	// milliseconds.
	WallMS float64
	// Part is the full partition vector: Part[v] is the part of global
	// vertex v.
	Part []int
}

// Typed errors of the service. The wire carries their code, so a
// client-side errors.Is works across the connection.
var (
	// ErrOverloaded is the admission-control rejection: the worker
	// pool and its bounded queue are full. Retryable — back off and
	// resend.
	ErrOverloaded = errors.New("service: server overloaded, queue full (retryable)")
	// ErrUnknownGraph rejects a delta request whose base fingerprint
	// the server no longer holds; re-send as a full upload.
	ErrUnknownGraph = errors.New("service: unknown base graph fingerprint")
	// ErrBadRequest rejects a structurally or semantically invalid
	// request.
	ErrBadRequest = errors.New("service: bad request")
)

// errCode is the wire form of a typed error.
type errCode byte

const (
	codeOverloaded errCode = 1
	codeBadRequest errCode = 2
	codeUnknown    errCode = 3
	codeCancelled  errCode = 4
	codeInternal   errCode = 5
)

// --- frame layer ---

// appendFrame appends one framed message to dst.
func appendFrame(dst []byte, t msgType, payload []byte) []byte {
	start := len(dst)
	dst = append(beginFrame(dst, t), payload...)
	endFrame(dst[start:])
	return dst
}

// beginFrame appends the header of a type-t frame whose length endFrame
// fills in once the payload has been appended after it, so a message is
// encoded straight into its frame instead of apart and then copied in.
func beginFrame(dst []byte, t msgType) []byte {
	return append(dst, magic0, magic1, wireVersion, byte(t), 0, 0, 0, 0)
}

// endFrame patches the payload length into the header of frame, which
// holds one whole frame.
func endFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame[4:], uint32(len(frame)-headerLen))
	return frame
}

// readFrame reads one frame from br, enforcing the header invariants
// and the payload cap before any payload allocation. The payload is
// read into buf when it fits and into a new slice otherwise.
func readFrame(br *bufio.Reader, maxFrame int, buf []byte) (msgType, []byte, error) {
	hdr, err := br.Peek(headerLen) // in br's buffer: no allocation
	if err != nil {
		return 0, nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, nil, fmt.Errorf("service: bad frame magic %02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return 0, nil, fmt.Errorf("service: unsupported protocol version %d (have %d)", hdr[2], wireVersion)
	}
	t := msgType(hdr[3])
	if t != msgPartition && t != msgOK && t != msgError {
		return 0, nil, fmt.Errorf("service: unknown frame type %d", hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if int64(n) > int64(maxFrame) {
		return 0, nil, fmt.Errorf("service: frame payload %d bytes exceeds cap %d", n, maxFrame)
	}
	_, _ = br.Discard(headerLen) // cannot fail: Peek buffered them
	payload := buf[:0]
	if cap(buf) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("service: truncated frame (%d-byte payload): %w", n, err)
	}
	return t, payload, nil
}

// --- payload codec ---

// wbuf is the append-only payload writer.
type wbuf struct{ b []byte }

func (w *wbuf) u64(v uint64)   { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) i64(v int64)    { w.b = binary.AppendVarint(w.b, v) }
func (w *wbuf) f64(v float64)  { w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *wbuf) byteVal(v byte) { w.b = append(w.b, v) }
func (w *wbuf) str(s string) {
	w.u64(uint64(len(s)))
	w.b = append(w.b, s...)
}

// ints writes a length-prefixed run of zigzag varints. The one- and
// two-byte forms (|x| below 64 and 8 192: part ids, most endpoints) are
// appended inline; the bytes are exactly binary.AppendVarint's.
func (w *wbuf) ints(xs []int) {
	w.u64(uint64(len(xs)))
	for _, x := range xs {
		ux := uint64(x) << 1
		if x < 0 {
			ux = ^ux
		}
		switch {
		case ux < 1<<7:
			w.b = append(w.b, byte(ux))
		case ux < 1<<14:
			w.b = append(w.b, byte(ux)|0x80, byte(ux>>7))
		default:
			w.b = binary.AppendVarint(w.b, int64(x))
		}
	}
}

// rbuf is the bounds-checked payload reader: the first failure latches
// into err and every later read returns a zero value, so decoders read
// straight through and check once.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("service: malformed payload: "+format, args...)
	}
}

func (r *rbuf) rem() int { return len(r.b) - r.off }

func (r *rbuf) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *rbuf) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *rbuf) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.rem() < 8 {
		r.fail("truncated float64 at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *rbuf) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.rem() < 1 {
		r.fail("truncated byte at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) str(max int) string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > uint64(max) || n > uint64(r.rem()) {
		r.fail("string length %d exceeds limit %d or remaining %d bytes", n, max, r.rem())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads an element count and rejects it when the remaining
// payload could not possibly hold that many elements of at least
// minBytes each — the over-allocation guard.
func (r *rbuf) count(minBytes int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.rem()/minBytes) {
		r.fail("element count %d exceeds remaining %d bytes", n, r.rem())
		return 0
	}
	return int(n)
}

// ints reads what wbuf.ints wrote. A run of one-byte varints (part
// ids, small endpoints) is decoded in a tight loop and a two-byte varint
// inline; anything longer, and every malformed input, goes through i64,
// so values, errors and the final offset are exactly those of a loop
// over binary.Varint (FuzzIntsCodec pins it).
func (r *rbuf) ints() []int {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := 0; i < n; i++ {
		src, dst := r.b[r.off:], xs[i:]
		m := min(len(src), len(dst))
		src, dst = src[:m], dst[:m]
		k := 0
		for k < m && src[k] < 0x80 {
			dst[k] = int(src[k]>>1) ^ -int(src[k]&1)
			k++
		}
		i, r.off = i+k, r.off+k
		if i == n {
			break
		}
		if b := r.b[r.off:]; len(b) > 1 && b[1] < 0x80 {
			ux := uint64(b[0]&0x7f) | uint64(b[1])<<7
			xs[i] = int(ux>>1) ^ -int(ux&1)
			r.off += 2
			continue
		}
		xs[i] = int(r.i64())
		if r.err != nil {
			return nil
		}
	}
	return xs
}

// done reports the latched error, or a trailing-garbage error when the
// payload was not fully consumed.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("service: malformed payload: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// --- message encodings ---

// appendRequest appends req's msgPartition payload to dst, which is
// first grown for two-byte endpoints and delta fields, so a typical
// request is written without regrowing it.
func appendRequest(dst []byte, req *Request) []byte {
	size := 64 + len(req.Spec.Method) + 2*(len(req.E1)+len(req.E2)) + 4*len(req.Delta)
	w := wbuf{b: slices.Grow(dst, size)}
	var flags byte
	if len(req.E1) > 0 || len(req.E2) > 0 {
		flags |= flagEdges
	}
	if len(req.Delta) > 0 || req.Base != 0 {
		flags |= flagDelta
	}
	w.byteVal(flags)
	w.u64(uint64(req.NNode))
	w.u64(uint64(req.NParts))
	w.u64(uint64(req.Procs))
	sp := req.Spec
	w.str(string(sp.Method))
	w.i64(int64(sp.CoarsenTo))
	w.i64(int64(sp.ParallelThreshold))
	w.u64(sp.Seed)
	w.f64(sp.Imbalance)
	w.i64(int64(sp.Restreams))
	w.f64(sp.BalanceSlack)
	if flags&flagEdges != 0 {
		w.ints(req.E1)
		w.ints(req.E2)
	}
	if flags&flagDelta != 0 {
		w.u64(uint64(req.Base))
		w.u64(uint64(len(req.Delta)))
		for _, d := range req.Delta {
			w.u64(uint64(d.Edge))
			w.u64(uint64(d.NewEnd))
		}
	}
	return w.b
}

// decodeRequest parses a msgPartition payload. Structural validation
// only — semantic checks (endpoint ranges, capability match) are the
// server's job — except that a flag bit this version does not define
// fails as ErrBadRequest: its payload would be misread.
func decodeRequest(p []byte) (*Request, error) {
	r := &rbuf{b: p}
	flags := r.byteVal()
	if unknown := flags &^ (flagEdges | flagDelta); unknown != 0 {
		return nil, fmt.Errorf("%w: unknown request flag bits %#02x", ErrBadRequest, unknown)
	}
	req := &Request{
		NNode:  int(r.u64()),
		NParts: int(r.u64()),
		Procs:  int(r.u64()),
	}
	req.Spec = partition.Spec{
		Method:            partition.Method(r.str(maxMethodLen)),
		CoarsenTo:         int(r.i64()),
		ParallelThreshold: int(r.i64()),
		Seed:              r.u64(),
		Imbalance:         r.f64(),
		Restreams:         int(r.i64()),
		BalanceSlack:      r.f64(),
	}
	if flags&flagEdges != 0 {
		req.E1 = r.ints()
		req.E2 = r.ints()
		if r.err == nil && len(req.E1) != len(req.E2) {
			r.fail("edge endpoint lists of unequal length %d, %d", len(req.E1), len(req.E2))
		}
	}
	if flags&flagDelta != 0 {
		req.Base = Fingerprint(r.u64())
		n := r.count(2)
		if r.err == nil && n > 0 {
			req.Delta = make([]EdgeRewire, n)
			for i := range req.Delta {
				req.Delta[i] = EdgeRewire{Edge: int(r.u64()), NewEnd: int(r.u64())}
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// appendResponse appends resp's msgOK payload to dst, which is first
// grown for one-byte part ids.
func appendResponse(dst []byte, resp *Response) []byte {
	w := wbuf{b: slices.Grow(dst, 48+len(resp.Part))}
	w.u64(uint64(resp.Fingerprint))
	w.byteVal(byte(resp.Served))
	w.u64(uint64(resp.Cut))
	w.f64(resp.VirtualS)
	w.f64(resp.WallMS)
	w.ints(resp.Part)
	return w.b
}

// decodeResponse parses a msgOK payload.
func decodeResponse(p []byte) (*Response, error) {
	r := &rbuf{b: p}
	resp := &Response{
		Fingerprint: Fingerprint(r.u64()),
		Served:      Served(r.byteVal()),
		Cut:         int(r.u64()),
		VirtualS:    r.f64(),
		WallMS:      r.f64(),
		Part:        r.ints(),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

// encodeError renders err as a msgError payload, mapping the typed
// sentinels to their wire codes.
func encodeError(err error) []byte {
	code := codeInternal
	switch {
	case errors.Is(err, ErrOverloaded):
		code = codeOverloaded
	case errors.Is(err, ErrUnknownGraph):
		code = codeUnknown
	case errors.Is(err, ErrBadRequest):
		code = codeBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = codeCancelled
	}
	var w wbuf
	w.byteVal(byte(code))
	msg := err.Error()
	if len(msg) > maxErrorLen {
		msg = msg[:maxErrorLen]
	}
	w.str(msg)
	return w.b
}

// decodeError parses a msgError payload back into a typed error, so
// errors.Is(err, ErrOverloaded) works on the client side.
func decodeError(p []byte) error {
	r := &rbuf{b: p}
	code := errCode(r.byteVal())
	detail := r.str(maxErrorLen)
	if err := r.done(); err != nil {
		return err
	}
	switch code {
	case codeOverloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, detail)
	case codeBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, detail)
	case codeUnknown:
		return fmt.Errorf("%w: %s", ErrUnknownGraph, detail)
	case codeCancelled:
		return fmt.Errorf("service: request cancelled on server: %s: %w", detail, context.Canceled)
	default:
		return fmt.Errorf("service: server error: %s", detail)
	}
}
