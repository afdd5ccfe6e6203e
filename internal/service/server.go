package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chaos/internal/partition"
)

// Server is chaosd's core: a long-lived partitioning service wrapping
// the Session/Repartitioner machinery behind the wire protocol.
// Request lifecycle:
//
//	validate → a churn delta its base remembers? ── yes: the child's
//	                │ no                            content and name ──┐
//	                ▼                                                  │
//	        fingerprint (the name) → verify: a result under ◄──────────┘
//	                │   the name computed for this content? ── yes ──► respond (hit;
//	                │                                            on the wire, its stored frame)
//	                │ no
//	                ▼
//	        job for this name and content in flight? ──────────► wait (shared)
//	                │ no — become the leader
//	                ▼
//	        admission: queue slot free? ── no ─────────────────► ErrOverloaded
//	                │ yes (FIFO queue, bounded)
//	                ▼
//	        worker: name free or bound to this content? ── no ─► compute, respond
//	                │ yes                                       uncached, Fingerprint 0
//	                ▼
//	        warm ladder off the base Base named? ── yes ───────► Repartition (warm)
//	                │ no                                              │
//	                ▼                                                 ▼
//	        cold partition (+ retain ladder) ─────────────────► cache + respond
//
// Admission control is a bounded worker pool (Workers) over a bounded
// FIFO queue (QueueDepth): a request that finds the queue full is
// rejected immediately with the retryable ErrOverloaded instead of
// piling onto the daemon, and queued work starts in arrival order.
// Identical in-flight requests are batched (singleflight): a thundering
// herd of equal requests costs one compute, and every follower's
// response is marked ServedShared. A panic outside the partitioner
// fails only its own request (at a worker) or connection, never the
// daemon.
type Server struct {
	cache *cache

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	flight    map[resultKey]*job
	listeners map[net.Listener]struct{}
	live      map[net.Conn]struct{} // accepted connections not yet closed
	closed    bool

	work    chan *job
	workers sync.WaitGroup
	conns   sync.WaitGroup

	metrics serverMetrics

	// compute is the engine entry point; tests substitute it to make
	// admission and batching deterministic.
	compute func(ctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error)
	// writeTimeout bounds each response write; tests lower it.
	writeTimeout time.Duration
	// fingerprint names a graph's content; tests substitute it to make
	// distinct graphs share names.
	fingerprint func(*graphContent) Fingerprint
}

// Options configures a Server. The zero value of every field selects
// the documented default.
type Options struct {
	// Workers is the compute pool width (default GOMAXPROCS): at most
	// this many partitioning runs execute concurrently.
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers):
	// requests beyond Workers running + QueueDepth queued are rejected
	// with ErrOverloaded.
	QueueDepth int
	// CacheBytes caps the content-addressed cache (default 256 MiB;
	// negative = unbounded).
	CacheBytes int64
}

// Per-request bounds: admitRequest rejects a request past any of them
// with ErrBadRequest (frames past maxFrame never reach it).
const (
	maxVertices = 1 << 22
	maxEdges    = 1 << 24
	maxProcs    = 64
)

// closeDrain is how long Close lets connection handlers finish their
// last write, such as the cancellation error of a request Close cut
// short, before it closes the connections still open.
const closeDrain = 500 * time.Millisecond

// defaultWriteTimeout is how long a response write may block on a peer
// that stopped reading before the handler drops the connection,
// freeing itself, its reader goroutine and the frame.
const defaultWriteTimeout = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	return o
}

// serverMetrics are the monotonic service counters.
type serverMetrics struct {
	hits     atomic.Int64
	cold     atomic.Int64
	warm     atomic.Int64
	shared   atomic.Int64
	rejected atomic.Int64
	panics   atomic.Int64 // contained at a worker or a connection
}

// Metrics is a point-in-time server counter snapshot.
type Metrics struct {
	Hits     int64 // responses served from the finished-partition cache
	Cold     int64 // full cold partitioner runs
	Warm     int64 // ladder-reusing incremental repartitions
	Shared   int64 // responses batched onto an identical in-flight compute
	Rejected int64 // admission-control rejections (ErrOverloaded)
	Cache    CacheStats
}

// New creates a Server ready to Serve listeners or answer in-process
// Do calls.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cache:        newCache(opt.CacheBytes),
		ctx:          ctx,
		cancel:       cancel,
		flight:       make(map[resultKey]*job),
		listeners:    make(map[net.Listener]struct{}),
		live:         make(map[net.Conn]struct{}),
		work:         make(chan *job, opt.QueueDepth),
		compute:      computePartition,
		writeTimeout: defaultWriteTimeout,
		fingerprint:  (*graphContent).fingerprint,
	}
	for i := 0; i < opt.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Metrics snapshots the service counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Hits:     s.metrics.hits.Load(),
		Cold:     s.metrics.cold.Load(),
		Warm:     s.metrics.warm.Load(),
		Shared:   s.metrics.shared.Load(),
		Rejected: s.metrics.rejected.Load(),
		Cache:    s.cache.stats(),
	}
}

// job is one admitted compute: the leader request plus every follower
// batched onto it. waiters counts interested requests; when it drops
// to zero the job's context is cancelled, so a compute nobody is
// waiting for unwinds instead of burning workers.
type job struct {
	key     resultKey
	gc      *graphContent
	base    *graphEntry // a churn request's base as named at admission; nil for an upload
	req     *Request
	ctx     context.Context
	cancel  context.CancelFunc
	waiters int // guarded by Server.mu

	done chan struct{} // closed once resp/err are set
	resp *Response     // leader-view response (Served = cold/warm)
	err  error
}

// Do answers one request in-process: the same path a wire request
// takes minus the codec. It is safe for concurrent use. The server
// retains the request's slices on a cache miss, so callers must not
// mutate them afterwards; cancelling ctx abandons the wait (and the
// compute itself, once no other request wants it) with an error
// wrapping ctx.Err().
func (s *Server) Do(ctx context.Context, req *Request) (*Response, error) {
	e, resp, err := s.serve(ctx, req)
	if e != nil {
		defer s.cache.releaseResult(e)
		return responseFrom(e, ServedHit), nil
	}
	return resp, err
}

// serve admits req and looks it up in the verified cache. A hit comes
// back as its result entry with one lease held, for the caller to
// render and release; anything else is computed, or batched onto an
// identical compute in flight, and comes back as a response.
func (s *Server) serve(ctx context.Context, req *Request) (*resultEntry, *Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gc, base, key, err := s.admitRequest(req)
	if err != nil {
		return nil, nil, err
	}
	if e := s.cache.leaseResult(key, gc); e != nil {
		s.metrics.hits.Add(1)
		return e, nil, nil
	}

	j, leader := s.joinFlight(key, gc, base, req)
	if j == nil {
		return nil, nil, ErrOverloaded
	}
	select {
	case <-j.done:
		if j.err != nil {
			return nil, nil, j.err
		}
		resp := *j.resp
		if !leader {
			resp.Served = ServedShared
			s.metrics.shared.Add(1)
		}
		return nil, &resp, nil
	case <-ctx.Done():
		s.leaveFlight(j)
		return nil, nil, fmt.Errorf("service: request abandoned: %w", ctx.Err())
	}
}

// admitRequest validates req and resolves its content, the base entry
// of a churn request, and its cache key. A churn delta the base entry
// remembers resolves to the content and name of the entry it derived,
// without applying the delta or naming the result again. No compute
// and no cache mutation happens here.
func (s *Server) admitRequest(req *Request) (gc *graphContent, base *graphEntry, key resultKey, err error) {
	fail := func(format string, args ...any) (*graphContent, *graphEntry, resultKey, error) {
		return nil, nil, key, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}
	if req.NNode < 1 || req.NNode > maxVertices {
		return fail("NNode %d out of range [1, %d]", req.NNode, maxVertices)
	}
	if req.NParts < 1 {
		return fail("NParts %d, want >= 1", req.NParts)
	}
	procs := req.Procs
	if procs == 0 {
		procs = req.NParts
	}
	if procs < 1 || procs > maxProcs {
		return fail("Procs %d out of range [1, %d]", procs, maxProcs)
	}
	p, err := req.Spec.Resolve()
	if err != nil {
		return nil, nil, key, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	hasUpload := len(req.E1) > 0
	hasDelta := req.Base != 0 || len(req.Delta) > 0
	var name Fingerprint
	switch {
	case hasUpload && hasDelta:
		return fail("request carries both a graph upload and a churn delta")
	case hasDelta:
		ge, ok := s.cache.leaseGraph(req.Base)
		if !ok {
			return nil, nil, key, fmt.Errorf("%w %s: re-send the graph as a full upload", ErrUnknownGraph, req.Base)
		}
		base = ge
		s.cache.releaseGraph(ge) // content is immutable; the lease only pinned the lookup
		if base.gc.n != req.NNode {
			return fail("delta base %s has %d vertices, request says %d", req.Base, base.gc.n, req.NNode)
		}
		for _, d := range req.Delta {
			if d.Edge < 0 || d.Edge >= len(base.gc.e1) {
				return fail("delta rewires edge %d of a %d-edge graph", d.Edge, len(base.gc.e1))
			}
			if d.NewEnd < 0 || d.NewEnd >= base.gc.n {
				return fail("delta endpoint %d out of range [0, %d)", d.NewEnd, base.gc.n)
			}
		}
		if gc, name = s.cache.derivedFrom(base, req.Delta); gc == nil {
			gc = applyDelta(base.gc, req.Delta)
		}
	case hasUpload:
		if len(req.E1) != len(req.E2) {
			return fail("edge endpoint lists of unequal length %d, %d", len(req.E1), len(req.E2))
		}
		if len(req.E1) > maxEdges {
			return fail("%d edges exceed the per-request cap %d", len(req.E1), maxEdges)
		}
		for i := range req.E1 {
			if req.E1[i] < 0 || req.E1[i] >= req.NNode || req.E2[i] < 0 || req.E2[i] >= req.NNode {
				return fail("edge %d endpoints (%d,%d) out of range [0, %d)", i, req.E1[i], req.E2[i], req.NNode)
			}
		}
		gc = &graphContent{n: req.NNode, e1: req.E1, e2: req.E2}
	default:
		return fail("request carries neither a graph upload nor a churn delta")
	}

	caps := p.Capabilities()
	if caps.NeedsLink && len(gc.e1) == 0 {
		return fail("%s requires LINK connectivity, but the request has no edges", req.Spec.Method)
	}
	if caps.NeedsGeometry {
		return fail("%s requires GEOMETRY coordinates, which a request cannot carry", req.Spec.Method)
	}

	if name == 0 {
		name = s.fingerprint(gc)
	}
	key = resultKey{fp: name, spec: req.Spec, nparts: req.NParts, procs: procs}
	return gc, base, key, nil
}

// joinFlight attaches the request to the in-flight job for key when
// that job computes the same content, and otherwise creates (and
// enqueues) a job of its own, which later requests for key join.
// Returns the job and whether this request is its leader; a nil job
// means the admission queue rejected the request.
func (s *Server) joinFlight(key resultKey, gc *graphContent, base *graphEntry, req *Request) (*job, bool) {
	s.mu.Lock()
	if j, ok := s.flight[key]; ok && sameContent(j.gc, gc) {
		j.waiters++
		s.mu.Unlock()
		return j, false
	}
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	jctx, jcancel := context.WithCancel(s.ctx)
	j := &job{
		key:     key,
		gc:      gc,
		base:    base,
		req:     req,
		ctx:     jctx,
		cancel:  jcancel,
		waiters: 1,
		done:    make(chan struct{}),
	}
	// Admission: claim a queue slot without blocking. The channel is
	// the FIFO — workers receive in enqueue order.
	select {
	case s.work <- j:
		s.flight[key] = j
		s.mu.Unlock()
		return j, true
	default:
		s.mu.Unlock()
		jcancel()
		s.metrics.rejected.Add(1)
		return nil, false
	}
}

// leaveFlight withdraws one waiter; the last one out cancels the
// compute.
func (s *Server) leaveFlight(j *job) {
	s.mu.Lock()
	j.waiters--
	abandon := j.waiters == 0
	s.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// worker drains the admission queue.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.work:
			s.run(j)
		case <-s.ctx.Done():
			// Drain whatever is still queued so every waiter unwinds.
			for {
				select {
				case j := <-s.work:
					s.finish(j, nil, fmt.Errorf("service: server shutting down: %w", s.ctx.Err()))
				default:
					return
				}
			}
		}
	}
}

// errInternal fails a request whose handling panicked outside the
// partitioner; it travels as the wire's internal error code.
var errInternal = errors.New("service: internal error")

// run executes one admitted job end to end. Once the answer is
// published, the worker builds the frame that wire hits on the cached
// result send, so neither the answer nor the first hit waits for it.
func (s *Server) run(j *job) {
	resp, cached, err := s.answer(j)
	s.finish(j, resp, err)
	if cached != nil {
		s.cache.frame(cached)
	}
}

// answer computes a job's response and returns it with the result entry
// cached for it (nil when nothing was cached). A panic anywhere in it is
// contained: the deferred releases below give back every lease and
// warmMu it took, and the job fails with errInternal.
func (s *Server) answer(j *job) (resp *Response, cached *resultEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			resp, cached, err = nil, nil, fmt.Errorf("%w: %v", errInternal, r)
		}
	}()
	if err := j.ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("service: request abandoned before compute: %w", err)
	}

	// The graph becomes addressable by its name from here on, and the
	// lease pins it for the compute's duration — unless the name is
	// bound to different content, in which case this request is
	// answered but nothing is cached for it. A churn request's base
	// remembers which entry its delta derived.
	ge := s.cache.putGraph(j.key.fp, j.gc)
	if ge != nil {
		defer s.cache.releaseGraph(ge)
		if j.base != nil {
			s.cache.derive(j.base, j.req.Delta, ge)
		}
	}
	res, err := s.computeFrom(j)
	if err != nil {
		return nil, nil, err
	}

	e := &resultEntry{
		key:      j.key,
		part:     res.part,
		cut:      res.cut,
		virtualS: res.stats.MaxClock,
		wallMS:   float64(res.stats.Elapsed.Nanoseconds()) / 1e6,
		ladders:  res.ladders,
	}
	if ge != nil {
		e = s.cache.putResult(ge, e)
		defer s.cache.releaseResult(e)
		cached = e
	}
	served := ServedCold
	if res.wasWarm {
		served = ServedWarm
		s.metrics.warm.Add(1)
	} else {
		s.metrics.cold.Add(1)
	}
	return responseFrom(e, served), cached, nil
}

// computeFrom runs the engine for j. A churn request whose base result
// — the one computed for exactly the content Base named at admission,
// with the same spec, nparts and procs — retained usable ladders is
// warm-started off it. The base entry stays leased and its warmMu held
// for the whole compute: the ladders share per-rank scratch arenas, so
// concurrent warm computes must serialize, and eviction mid-compute
// must be impossible.
func (s *Server) computeFrom(j *job) (*computeResult, error) {
	var warm *warmSource
	if j.base != nil {
		baseKey := j.key
		baseKey.fp = j.base.fp
		if be := s.cache.leaseResult(baseKey, j.base.gc); be != nil {
			defer s.cache.releaseResult(be)
			if be.hasLadders(j.gc.n, j.key.nparts, j.key.procs) {
				be.warmMu.Lock()
				defer be.warmMu.Unlock()
				warm = &warmSource{ladders: be.ladders, part: be.part}
			}
		}
	}
	return s.compute(j.ctx, j.gc, j.req.Spec, j.key.nparts, j.key.procs, warm)
}

// finish publishes the job's outcome: the cache (already updated)
// first, then flight-map removal, then the done broadcast — so a new
// identical request arriving at any point either hits the cache or
// joins a still-registered job, never recomputes.
func (s *Server) finish(j *job, resp *Response, err error) {
	s.mu.Lock()
	if s.flight[j.key] == j {
		delete(s.flight, j.key)
	}
	s.mu.Unlock()
	j.resp, j.err = resp, err
	close(j.done)
	j.cancel()
}

// responseFrom renders a leased cache entry (or an uncached answer) as
// a Response; an uncached answer carries no name. The part vector is
// copied: entries are shared across requests and may be evicted (and
// their buffers reused by nothing — but freed) after the lease drops.
func responseFrom(e *resultEntry, served Served) *Response {
	resp := e.response(served)
	resp.Part = slices.Clone(resp.Part)
	return &resp
}

// response renders e as a Response whose Part is e's own part vector,
// to be encoded, not handed out.
func (e *resultEntry) response(served Served) Response {
	resp := Response{
		Served:   served,
		Cut:      e.cut,
		VirtualS: e.virtualS,
		WallMS:   e.wallMS,
		Part:     e.part,
	}
	if e.g != nil {
		resp.Fingerprint = e.g.fp
	}
	return resp
}

// Serve accepts connections on l until the listener fails or the
// server closes. One goroutine per connection; requests on a
// connection are answered in order, and a connection that drops
// mid-request cancels its in-flight wait.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("service: server is closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return nil // orderly shutdown
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue // Close is under way; Accept fails next
		}
		s.live[conn] = struct{}{}
		s.conns.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.conns.Done()
			defer func() {
				s.mu.Lock()
				delete(s.live, conn)
				s.mu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// handleConn speaks the wire protocol on one connection. A dedicated
// reader goroutine feeds frames to the responder loop, so a peer that
// disconnects while a request is computing is noticed immediately and
// the request's context cancelled — the wire form of the stress
// gauntlet's mid-request cancellation.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	defer s.contain()

	type inFrame struct {
		t       msgType
		payload []byte
	}
	frames := make(chan inFrame, 4)
	go func() {
		defer close(frames)
		defer s.contain()
		br := bufio.NewReaderSize(conn, 1<<16)
		for {
			// Each frame is read into a payload of its own: it crosses to
			// the responder loop, and the next read would overwrite a
			// shared buffer under it.
			t, payload, err := readFrame(br, maxFrame, nil)
			if err != nil {
				cancel() // disconnect or garbage: abandon any in-flight request
				return
			}
			select {
			case frames <- inFrame{t, payload}:
			case <-ctx.Done():
				return
			}
		}
	}()

	var out []byte
	for {
		var fr inFrame
		var ok bool
		select {
		case fr, ok = <-frames:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		if fr.t != msgPartition {
			return // protocol violation; drop the connection
		}
		req, err := decodeRequest(fr.payload)
		var e *resultEntry
		var resp *Response
		if err == nil {
			e, resp, err = s.serve(ctx, req)
		}
		var frame []byte
		switch {
		case e != nil:
			// The hit's stored frame: no copy and no encode. The lease
			// is dropped before the write, so a peer that stops reading
			// pins no cache memory; the frame is immutable, and this
			// slice keeps it alive even if the entry is evicted.
			frame = s.cache.frame(e)
			s.cache.releaseResult(e)
		case err != nil:
			out = appendFrame(out[:0], msgError, encodeError(err))
			frame = out
		default:
			out = endFrame(appendResponse(beginFrame(out[:0], msgOK), resp))
			frame = out
		}
		if conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)) != nil {
			return
		}
		if _, werr := conn.Write(frame); werr != nil {
			return
		}
	}
}

// contain is deferred by each goroutine that serves a
// connection: a panic there (the codec, a hit, admission) is counted
// and drops that connection, and the daemon keeps serving.
func (s *Server) contain() {
	if r := recover(); r != nil {
		s.metrics.panics.Add(1)
	}
}

// Close shuts the server down: listeners stop accepting, in-flight
// computes are cancelled (every waiter unwinds with a wrapped
// context error), connection handlers get closeDrain to send those
// errors and leave, the connections still open after it are closed
// (a handler blocked writing to a peer that stopped reading returns),
// workers drain, and the cache is dropped. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	s.mu.Unlock()

	s.cancel()
	for _, l := range ls {
		l.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(closeDrain):
		s.mu.Lock()
		cs := make([]net.Conn, 0, len(s.live))
		for c := range s.live {
			cs = append(cs, c)
		}
		s.mu.Unlock()
		for _, c := range cs {
			c.Close()
		}
		<-drained
	}
	s.workers.Wait()
	return nil
}
