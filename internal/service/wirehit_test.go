package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"chaos/internal/partition"
)

// pipeListener is an in-memory net.Listener: each dial hands one end of
// a net.Pipe to Accept. A pipe has no buffer, so a Write blocks until
// the peer reads it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial returns the client end of a new connection to the listener.
func (l *pipeListener) dial() (net.Conn, error) {
	near, far := net.Pipe()
	select {
	case l.conns <- far:
		return near, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// serveWire serves s on an in-memory listener and returns a Do that
// sends each request over the wire through a Client: an idle one, or a
// new connection when every client is busy, so concurrent requests
// travel side by side. The clients close when the test ends.
func serveWire(t *testing.T, s *Server) func(context.Context, *Request) (*Response, error) {
	l := newPipeListener()
	go s.Serve(l)
	var mu sync.Mutex
	var idle []*Client
	t.Cleanup(func() {
		l.Close()
		for _, cl := range idle {
			cl.Close()
		}
	})
	return func(ctx context.Context, req *Request) (*Response, error) {
		mu.Lock()
		var cl *Client
		if n := len(idle); n > 0 {
			cl, idle = idle[n-1], idle[:n-1]
		}
		mu.Unlock()
		if cl == nil {
			conn, err := l.dial()
			if err != nil {
				return nil, err
			}
			cl = NewClient(conn)
		}
		resp, err := cl.Do(ctx, req)
		mu.Lock()
		idle = append(idle, cl)
		mu.Unlock()
		return resp, err
	}
}

// rawConn speaks the frame layer directly, so a test sees the exact
// payload the server sent.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, l *pipeListener) *rawConn {
	t.Helper()
	conn, err := l.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *rawConn) send(req *Request) {
	c.t.Helper()
	if _, err := c.conn.Write(frame(msgPartition, encodeRequest(req))); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads one msgOK frame and returns its payload and decoded form.
func (c *rawConn) recv() ([]byte, *Response) {
	c.t.Helper()
	ty, payload, err := readFrame(c.br, maxFrame, nil)
	if err != nil || ty != msgOK {
		c.t.Fatalf("frame type %d, err %v; want a msgOK frame", ty, err)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return payload, resp
}

// TestWireHitSendsStoredFrame pins the stored hit frame to the encoding
// it stands for. Every wire hit, of an upload and of a churn repeat,
// first and later, and after every entry is evicted and a name is bound
// to another graph, carries exactly the payload a fresh
// encodeResponse(responseFrom(e, ServedHit)) of its result entry gives,
// and the entry is charged for its frame once.
func TestWireHitSendsStoredFrame(t *testing.T) {
	s := New(Options{Workers: 1, CacheBytes: -1})
	t.Cleanup(func() { s.Close() }) // after dialRaw's cleanup frees a blocked write
	b, c := testRequest(0), testRequest(1)
	contentOf := func(r *Request) *graphContent { return &graphContent{n: r.NNode, e1: r.E1, e2: r.E2} }
	fpB, fpC := contentOf(b).fingerprint(), contentOf(c).fingerprint()
	s.fingerprint = func(gc *graphContent) Fingerprint {
		if fp := gc.fingerprint(); fp != fpB && fp != fpC {
			return fp
		}
		return 5 // b and c share a name
	}
	l := newPipeListener()
	go s.Serve(l)
	rc := dialRaw(t, l)

	// hits sends req three times: a compute, then two hits, each of
	// which must carry the fresh encoding of the entry cached for gc.
	hits := func(what string, req *Request, gc *graphContent) Fingerprint {
		t.Helper()
		rc.send(req)
		_, first := rc.recv()
		if first.Served == ServedHit || first.Fingerprint == 0 {
			t.Fatalf("%s: first answer served %v, named %v; want a named compute", what, first.Served, first.Fingerprint)
		}
		key := resultKey{fp: first.Fingerprint, spec: req.Spec, nparts: req.NParts, procs: testProcs}
		var held int64
		for i := 0; i < 2; i++ {
			rc.send(req)
			payload, resp := rc.recv()
			e := s.cache.leaseResult(key, gc)
			if e == nil {
				t.Fatalf("%s: no entry for the hit", what)
			}
			want := encodeResponse(responseFrom(e, ServedHit))
			size := int64(8*len(e.part) + 128 + headerLen + len(want))
			for _, ld := range e.ladders {
				size += int64(ld.Bytes())
			}
			s.cache.mu.Lock()
			got := e.size
			s.cache.mu.Unlock()
			s.cache.releaseResult(e)
			if !bytes.Equal(payload, want) {
				t.Fatalf("%s, hit %d: the frame's payload differs from a fresh encoding of its entry", what, i)
			}
			if resp.Served != ServedHit || resp.Cut != partition.EdgeListCut(gc.e1, gc.e2, resp.Part) {
				t.Fatalf("%s, hit %d: served %v, cut %d not the recount on the request's content", what, i, resp.Served, resp.Cut)
			}
			if got != size {
				t.Fatalf("%s, hit %d: the entry is charged %d bytes, want %d with its frame", what, i, got, size)
			}
			if i == 0 {
				held = s.cache.stats().Bytes
			} else if b := s.cache.stats().Bytes; b != held {
				t.Fatalf("%s: the cache grew from %d to %d bytes between two hits", what, held, b)
			}
		}
		return first.Fingerprint
	}

	hits("upload b", b, contentOf(b))
	churn := &Request{NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(),
		Base: 5, Delta: []EdgeRewire{{Edge: testNNode + 4, NewEnd: 99}, {Edge: testNNode + 9, NewEnd: 7}}}
	hits("churn of b", churn, applyDelta(contentOf(b), churn.Delta))

	// Evict everything, then bind b's name to c: c's hits must carry
	// c's entry, not a frame stored for b.
	s.cache.mu.Lock()
	s.cache.capBytes = 1
	s.cache.evict()
	s.cache.capBytes = -1
	s.cache.mu.Unlock()
	if st := s.cache.stats(); st.Graphs != 0 || st.Bytes != 0 {
		t.Fatalf("after eviction: %+v, want an empty cache", st)
	}
	if name := hits("upload c", c, contentOf(c)); name != 5 {
		t.Fatalf("c was named %v, want the re-bound name 5", name)
	}

	// An in-process hit's part vector is the caller's own: writing to
	// it changes neither the next in-process hit nor the wire frame.
	rc.send(c)
	_, before := rc.recv()
	own, err := s.Do(context.Background(), c)
	if err != nil || own.Served != ServedHit {
		t.Fatalf("in-process repeat of c: served %v, err %v; want a hit", own.Served, err)
	}
	for i := range own.Part {
		own.Part[i] = -1
	}
	again, err := s.Do(context.Background(), c)
	if err != nil || !slices.Equal(again.Part, before.Part) {
		t.Fatalf("an in-process hit shares its part vector with the cache (err %v)", err)
	}
	rc.send(c)
	if _, after := rc.recv(); !slices.Equal(after.Part, before.Part) {
		t.Fatal("an in-process hit shares its part vector with the wire frame")
	}
}

// TestBlockedHitWriteHoldsNoLease pins the write half of the hit path:
// a wire hit whose peer does not read its answer holds no lease while
// its Write blocks, so the entry can be evicted meanwhile, and the
// answer the peer finally reads is still the entry's frame.
func TestBlockedHitWriteHoldsNoLease(t *testing.T) {
	s := New(Options{Workers: 1, CacheBytes: -1})
	t.Cleanup(func() { s.Close() }) // after dialRaw's cleanup frees a blocked write
	l := newPipeListener()
	go s.Serve(l)
	rc := dialRaw(t, l)
	req := testRequest(0)
	rc.send(req)
	_, cold := rc.recv()
	rc.send(req)
	_, want := rc.recv()

	// A second hit, whose answer nobody reads yet: once it has been
	// counted and its lease dropped, the server is at, or blocked in,
	// its Write.
	rc.send(req)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if s.Metrics().Hits == 2 && leases(s) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the blocked hit still holds %d leases", leases(s))
		}
		time.Sleep(time.Millisecond)
	}
	s.cache.mu.Lock()
	s.cache.capBytes = 1
	s.cache.evict()
	s.cache.capBytes = -1
	s.cache.mu.Unlock()
	if st := s.cache.stats(); st.Graphs != 0 || st.Results != 0 {
		t.Fatalf("the entry behind a blocked write was not evictable: %+v", st)
	}
	_, got := rc.recv()
	if got.Served != ServedHit || got.Fingerprint != cold.Fingerprint || got.Cut != want.Cut || !slices.Equal(got.Part, want.Part) {
		t.Fatalf("the answer read after eviction differs from the hit before it")
	}
}

// leases counts the leases every cached entry holds.
func leases(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	n := 0
	for _, ge := range s.cache.graphs {
		n += ge.leases
	}
	for _, e := range s.cache.results {
		n += e.leases
	}
	return n
}

// TestCloseWithUnreadHit is Close against a peer that stopped reading:
// a wire hit whose answer nobody reads leaves its handler blocked in
// Write, and Close must still return, by closing the connection under
// it.
func TestCloseWithUnreadHit(t *testing.T) {
	s := New(Options{Workers: 1, CacheBytes: -1})
	l := newPipeListener()
	go s.Serve(l)
	rc := dialRaw(t, l)
	req := testRequest(0)
	rc.send(req)
	rc.recv()
	rc.send(req) // the hit; its answer is never read
	for deadline := time.Now().Add(5 * time.Second); s.Metrics().Hits != 1 || leases(s) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the unread hit was never served")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2 s while a handler was blocked writing an unread hit")
	}
}

// TestCloseSendsWireWaitersTheirError is the drain half of Close: a
// wire client whose request is computing when the server closes gets
// the typed cancellation, not a dropped connection.
func TestCloseSendsWireWaitersTheirError(t *testing.T) {
	sc := newStubCompute()
	s := New(Options{Workers: 1})
	s.compute = sc.fn
	do := serveWire(t, s)
	errc := make(chan error, 1)
	go func() {
		_, err := do(context.Background(), tinyRequest(0))
		errc <- err
	}()
	eventually(t, func() string {
		if len(sc.started()) == 0 {
			return "no compute started"
		}
		return ""
	})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("the waiting wire client got %v, want the server's wrapped context.Canceled", err)
	}
}

// TestWireDisconnectCancelsCompute pins the reader goroutine of a
// connection: a loopback client that hangs up while its request is
// computing cancels the server's compute context within a bound, and
// the request holds no lease afterwards. A handler that read frames
// only between answers would not notice the hang-up until the compute
// finished on its own, which this one never does.
func TestWireDisconnectCancelsCompute(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	started, cancelled := make(chan struct{}), make(chan struct{})
	var startOnce, cancelOnce sync.Once
	s.compute = func(jctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error) {
		startOnce.Do(func() { close(started) })
		<-jctx.Done() // only the disconnect can end this compute
		cancelOnce.Do(func() { close(cancelled) })
		return nil, jctx.Err()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Do(context.Background(), testRequest(0))
		done <- err
	}()
	const bound = 5 * time.Second
	select {
	case <-started:
	case <-time.After(bound):
		t.Fatalf("the request did not reach the compute within %v", bound)
	}
	cl.Close()

	select {
	case <-cancelled:
	case <-time.After(bound):
		t.Fatalf("the compute context was not cancelled %v after the client hung up", bound)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("Do on a closed connection returned an answer")
		}
	case <-time.After(bound):
		t.Fatalf("Do did not return %v after its connection closed", bound)
	}
	for deadline := time.Now().Add(bound); leases(s) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the abandoned request still holds %d leases", leases(s))
		}
		time.Sleep(time.Millisecond)
	}
}
