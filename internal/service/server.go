package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"chaos/internal/machine"
	"chaos/internal/partition"
)

// Server is chaosd's core: a long-lived partitioning service wrapping
// the Session/Repartitioner machinery behind the wire protocol.
// Request lifecycle:
//
//	validate → fingerprint (the name) → verify: a result under that
//	                │   name computed for this content? ── yes ──► respond (hit)
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
	opt   Options
	cache *cache

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	flight    map[resultKey]*job
	listeners map[net.Listener]struct{}
	closed    bool

	work    chan *job
	workers sync.WaitGroup
	conns   sync.WaitGroup

	metrics serverMetrics

	// compute is the engine entry point; tests substitute it to make
	// admission and batching deterministic.
	compute func(ctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, backend machine.Backend, warm *warmSource) (*computeResult, error)
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
	// MaxFrame caps wire frame payloads (default DefaultMaxFrame).
	MaxFrame int
	// MaxVertices / MaxEdges / MaxProcs bound a single request
	// (defaults 1<<22 vertices, 1<<24 edges, 64 procs).
	MaxVertices int
	MaxEdges    int
	MaxProcs    int
}

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
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxVertices <= 0 {
		o.MaxVertices = 1 << 22
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 1 << 24
	}
	if o.MaxProcs <= 0 {
		o.MaxProcs = 64
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
		opt:         opt,
		cache:       newCache(opt.CacheBytes),
		ctx:         ctx,
		cancel:      cancel,
		flight:      make(map[resultKey]*job),
		listeners:   make(map[net.Listener]struct{}),
		work:        make(chan *job, opt.QueueDepth),
		compute:     computePartition,
		fingerprint: (*graphContent).fingerprint,
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
	base    *graphContent // a churn request's base content; nil for an upload
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
	if ctx == nil {
		ctx = context.Background()
	}
	gc, base, key, err := s.admitRequest(req)
	if err != nil {
		return nil, err
	}
	if resp := s.hit(key, gc); resp != nil {
		return resp, nil
	}

	j, leader := s.joinFlight(key, gc, base, req)
	if j == nil {
		return nil, ErrOverloaded
	}
	select {
	case <-j.done:
		if j.err != nil {
			return nil, j.err
		}
		resp := *j.resp
		if !leader {
			resp.Served = ServedShared
			s.metrics.shared.Add(1)
		}
		return &resp, nil
	case <-ctx.Done():
		s.leaveFlight(j)
		return nil, fmt.Errorf("service: request abandoned: %w", ctx.Err())
	}
}

// hit answers from the finished-partition cache, or returns nil when
// no result computed for exactly this content is cached under key.
func (s *Server) hit(key resultKey, gc *graphContent) *Response {
	e := s.cache.leaseResult(key, gc)
	if e == nil {
		return nil
	}
	defer s.cache.releaseResult(e)
	s.metrics.hits.Add(1)
	return responseFrom(e, ServedHit)
}

// admitRequest validates req and resolves its content, the base
// content of a churn request, and its cache key. No compute and no
// cache mutation happens here.
func (s *Server) admitRequest(req *Request) (gc, base *graphContent, key resultKey, err error) {
	fail := func(format string, args ...any) (*graphContent, *graphContent, resultKey, error) {
		return nil, nil, key, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}
	if req.NNode < 1 || req.NNode > s.opt.MaxVertices {
		return fail("NNode %d out of range [1, %d]", req.NNode, s.opt.MaxVertices)
	}
	if req.NParts < 1 {
		return fail("NParts %d, want >= 1", req.NParts)
	}
	procs := req.Procs
	if procs == 0 {
		procs = req.NParts
	}
	if procs < 1 || procs > s.opt.MaxProcs {
		return fail("Procs %d out of range [1, %d]", procs, s.opt.MaxProcs)
	}
	p, err := req.Spec.Resolve()
	if err != nil {
		return nil, nil, key, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	hasUpload := len(req.E1) > 0 || len(req.Coords) > 0 || len(req.VertexWeights) > 0
	hasDelta := req.Base != 0 || len(req.Delta) > 0
	switch {
	case hasUpload && hasDelta:
		return fail("request carries both a graph upload and a churn delta")
	case hasDelta:
		ge, ok := s.cache.leaseGraph(req.Base)
		if !ok {
			return nil, nil, key, fmt.Errorf("%w %s: re-send the graph as a full upload", ErrUnknownGraph, req.Base)
		}
		base = ge.gc
		s.cache.releaseGraph(ge) // content is immutable; the lease only pinned the lookup
		if base.n != req.NNode {
			return fail("delta base %s has %d vertices, request says %d", req.Base, base.n, req.NNode)
		}
		for _, d := range req.Delta {
			if d.Edge < 0 || d.Edge >= len(base.e1) {
				return fail("delta rewires edge %d of a %d-edge graph", d.Edge, len(base.e1))
			}
			if d.NewEnd < 0 || d.NewEnd >= base.n {
				return fail("delta endpoint %d out of range [0, %d)", d.NewEnd, base.n)
			}
		}
		gc = applyDelta(base, req.Delta)
	case hasUpload:
		if len(req.E1) != len(req.E2) {
			return fail("edge endpoint lists of unequal length %d, %d", len(req.E1), len(req.E2))
		}
		if len(req.E1) > s.opt.MaxEdges {
			return fail("%d edges exceed the per-request cap %d", len(req.E1), s.opt.MaxEdges)
		}
		for i := range req.E1 {
			if req.E1[i] < 0 || req.E1[i] >= req.NNode || req.E2[i] < 0 || req.E2[i] >= req.NNode {
				return fail("edge %d endpoints (%d,%d) out of range [0, %d)", i, req.E1[i], req.E2[i], req.NNode)
			}
		}
		for d, col := range req.Coords {
			if len(col) != req.NNode {
				return fail("coordinate column %d has %d entries, want %d", d, len(col), req.NNode)
			}
			for v, x := range col {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fail("coordinate column %d, vertex %d is %g, want a finite value", d, v, x)
				}
			}
		}
		if req.VertexWeights != nil && len(req.VertexWeights) != req.NNode {
			return fail("vertex weights have %d entries, want %d", len(req.VertexWeights), req.NNode)
		}
		for v, w := range req.VertexWeights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fail("vertex %d has weight %g, want a finite non-negative value", v, w)
			}
		}
		gc = &graphContent{n: req.NNode, e1: req.E1, e2: req.E2, coords: req.Coords, weights: req.VertexWeights}
	default:
		return fail("request carries neither a graph upload nor a churn delta")
	}

	caps := p.Capabilities()
	if caps.NeedsLink && len(gc.e1) == 0 {
		return fail("%s requires LINK connectivity, but the request has no edges", req.Spec.Method)
	}
	if caps.NeedsGeometry && len(gc.coords) == 0 {
		return fail("%s requires GEOMETRY coordinates, but the request has none", req.Spec.Method)
	}

	key = resultKey{fp: s.fingerprint(gc), spec: req.Spec.String(), nparts: req.NParts, procs: procs}
	return gc, base, key, nil
}

// joinFlight attaches the request to the in-flight job for key when
// that job computes the same content, and otherwise creates (and
// enqueues) a job of its own, which later requests for key join.
// Returns the job and whether this request is its leader; a nil job
// means the admission queue rejected the request.
func (s *Server) joinFlight(key resultKey, gc, base *graphContent, req *Request) (*job, bool) {
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

// run executes one admitted job end to end.
func (s *Server) run(j *job) {
	resp, err := s.answer(j)
	s.finish(j, resp, err)
}

// answer computes a job's response. A panic anywhere in it is
// contained: the deferred releases below give back every lease and
// warmMu it took, and the job fails with errInternal.
func (s *Server) answer(j *job) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			resp, err = nil, fmt.Errorf("%w: %v", errInternal, r)
		}
	}()
	if err := j.ctx.Err(); err != nil {
		return nil, fmt.Errorf("service: request abandoned before compute: %w", err)
	}

	// The graph becomes addressable by its name from here on, and the
	// lease pins it for the compute's duration — unless the name is
	// bound to different content, in which case this request is
	// answered but nothing is cached for it.
	ge := s.cache.putGraph(j.key.fp, j.gc)
	if ge != nil {
		defer s.cache.releaseGraph(ge)
	}
	res, err := s.computeFrom(j)
	if err != nil {
		return nil, err
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
	}
	served := ServedCold
	if res.wasWarm {
		served = ServedWarm
		s.metrics.warm.Add(1)
	} else {
		s.metrics.cold.Add(1)
	}
	return responseFrom(e, served), nil
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
		baseKey.fp = j.req.Base
		if be := s.cache.leaseResult(baseKey, j.base); be != nil {
			defer s.cache.releaseResult(be)
			if be.hasLadders(j.gc.n, j.key.nparts, j.key.procs) {
				be.warmMu.Lock()
				defer be.warmMu.Unlock()
				warm = &warmSource{ladders: be.ladders, part: be.part}
			}
		}
	}
	return s.compute(j.ctx, j.gc, j.req.Spec, j.key.nparts, j.key.procs, j.req.Backend, warm)
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
	resp := &Response{
		Served:   served,
		Cut:      e.cut,
		VirtualS: e.virtualS,
		WallMS:   e.wallMS,
		Part:     append([]int(nil), e.part...),
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
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
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
			t, payload, err := readFrame(br, s.opt.MaxFrame)
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
		var resp *Response
		if err == nil {
			resp, err = s.Do(ctx, req)
		}
		out = out[:0]
		if err != nil {
			out = appendFrame(out, msgError, encodeError(err))
		} else {
			out = appendFrame(out, msgOK, encodeResponse(resp))
		}
		if _, werr := conn.Write(out); werr != nil {
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
// context error), workers and connection handlers drain, and the
// cache is dropped. Idempotent.
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
	s.conns.Wait()
	s.workers.Wait()
	return nil
}
