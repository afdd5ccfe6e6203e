package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/partition"
	"chaos/internal/service"
	"chaos/internal/xrand"
)

// service_mix drives the chaosd daemon over loopback TCP with two
// closed-loop clients. Each client works through generations of seven
// requests on a graph family of its own: a new graph (served cold),
// the same upload twice more (cache hits), a 2 % edge-rewire delta
// against the upload (warm, off the retained ladder), that delta
// again (hit), a second delta chained onto the first one's
// fingerprint (today served cold: warm results retain no ladder), and
// that one again (hit). Kinds name what the client asked, not how the
// server answered, so a change that turns delta_chain warm shows as a
// gain instead of breaking the schedule. Requests only ever refer to
// graphs of the current generation, so eviction of older generations
// cannot change an answer.

const (
	svcNodes      = 4000
	svcNodesQuick = 2200 // over MULTILEVEL's distributed threshold, so ladders exist
	svcDegree     = 6
	svcParts      = 8
	svcProcs      = 4
	svcClients    = 2
	svcBases      = 4  // uploads per client during set-up
	svcChurn      = 50 // one edge in 50 rewired per delta: 2 %
)

const (
	kUpload = iota
	kRepeat
	kDeltaBase
	kDeltaChain
)

// svcSpec is what every request asks for. The fixed Seed keeps the
// distributed matching's tie-breaking, and so every answer, a function
// of the graph alone.
var svcSpec = partition.Spec{Method: partition.MethodMultilevel, Seed: 7}

func serviceMix() workload {
	w := workload{
		name:            "service_mix",
		why:             "the only workload where wire codec, fingerprinting, cache and leases, admission queue and the ladder-retaining warm repartition run; 4 of 7 requests are hits, kept visible by the geometric mean",
		kinds:           []string{"upload", "repeat", "delta_base", "delta_chain"},
		roundsPerSecond: 9.0,
	}
	w.run = func(p params, tr *tracer, rec *recorder) (setupInfo, error) { return runServiceMix(w, p, tr, rec) }
	return w
}

// svcInstance is one running daemon with its connected clients.
type svcInstance struct {
	nodes   int
	seed    uint64
	addr    string
	srv     *service.Server
	served  chan error // Serve's return value
	clients []*service.Client
}

func newSvcInstance(p params) (*svcInstance, error) {
	in := &svcInstance{nodes: svcNodes, seed: p.seed, srv: service.New(service.Options{}), served: make(chan error, 1)}
	if p.quick {
		in.nodes = svcNodesQuick
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close()
		return nil, err
	}
	in.addr = ln.Addr().String()
	go func() { in.served <- in.srv.Serve(ln) }()
	for i := 0; i < svcClients; i++ {
		cl, err := service.Dial("tcp", in.addr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, cl)
	}
	return in, nil
}

// close stops the clients and the daemon and waits for its goroutines.
func (in *svcInstance) close() error {
	for _, cl := range in.clients {
		cl.Close()
	}
	err := in.srv.Close()
	if serr := <-in.served; err == nil {
		err = serr
	}
	return err
}

// graph returns client's idx-th graph. Families are disjoint: the
// variant number's low bit is the client.
func (in *svcInstance) graph(client, idx int) (e1, e2 []int) {
	h := xrand.Hash64(in.seed ^ xrand.Hash64(uint64(idx)+1))
	return service.LoadGraph(int(h&0x3ffffff)<<1|client, in.nodes, svcDegree)
}

// rewires draws a 2 % churn delta against the graph (e1, e2) and
// applies it to e2 in place, exactly as the server will.
func rewires(rng *xrand.Stream, e1, e2 []int, nodes int) []service.EdgeRewire {
	delta := make([]service.EdgeRewire, len(e1)/svcChurn)
	for i := range delta {
		edge := rng.Intn(len(e1))
		end := rng.Intn(nodes)
		if end == e1[edge] {
			end = (end + 1) % nodes
		}
		delta[i] = service.EdgeRewire{Edge: edge, NewEnd: end}
		e2[edge] = end
	}
	return delta
}

// svcOp sends one request of kind k as client, records it, and puts
// the answer through the partition oracle against (e1, e2), the graph
// as the client knows it; an error or a wrong answer counts the op as
// failed.
func (in *svcInstance) svcOp(rec *recorder, o opCtx, client, k int, req *service.Request, e1, e2 []int) (*service.Response, error) {
	traced := o.tr != nil
	if traced {
		o.parent = o.tr.begin(0, o.op, o.kind, "op", 0)
	}
	start := time.Now()
	id := o.span("service.Client.Do", 0)
	resp, err := in.clients[client].Do(context.Background(), req)
	wall := time.Since(start)
	virtual := 0.0
	if err == nil && (resp.Served == service.ServedCold || resp.Served == service.ServedWarm) {
		virtual = resp.VirtualS
	}
	o.tr.end(id, virtual)
	o.tr.end(o.parent, virtual)
	rec.op(k, wall, virtual, traced)
	if err != nil {
		rec.fail(err)
		return nil, err
	}
	if err := rec.judgePartition(k, e1, e2, resp.Part, in.nodes, svcParts, mlDistTol, resp.Cut); err != nil {
		return nil, err
	}
	return resp, nil
}

// generation runs client's seven requests on its graph number idx.
// each, when set, wraps every request (the allocation probe). A
// failed request fails the requests that depended on its answer too.
func (in *svcInstance) generation(rec *recorder, tr *tracer, client, idx int, each func(k int, f func())) {
	e1, e2 := in.graph(client, idx)
	rng := xrand.New(xrand.Hash64(in.seed^uint64(idx)<<8) + uint64(client))
	full := func(e2 []int) *service.Request {
		return &service.Request{NNode: in.nodes, NParts: svcParts, Procs: svcProcs, Spec: svcSpec, E1: e1, E2: e2}
	}
	churn := func(base service.Fingerprint, delta []service.EdgeRewire) *service.Request {
		return &service.Request{NNode: in.nodes, NParts: svcParts, Procs: svcProcs, Spec: svcSpec, Base: base, Delta: delta}
	}
	var last *service.Response
	do := func(k int, req *service.Request, e2 []int) bool {
		var err error
		call := func() {
			last, err = in.svcOp(rec, opCtx{tr: tr, op: idx, kind: rec.kinds[k]}, client, k, req, e1, e2)
		}
		if each != nil {
			each(k, call)
		} else {
			call()
		}
		return err == nil
	}
	skip := func(n int) {
		for i := 0; i < n; i++ {
			rec.attempted++
			rec.fail(fmt.Errorf("client %d graph %d: skipped after a failed request", client, idx))
		}
	}

	if !do(kUpload, full(e2), e2) {
		skip(6)
		return
	}
	up := last.Fingerprint
	do(kRepeat, full(e2), e2)
	do(kRepeat, full(e2), e2)
	e2a := append([]int(nil), e2...)
	d1 := rewires(rng, e1, e2a, in.nodes)
	if !do(kDeltaBase, churn(up, d1), e2a) {
		skip(3)
		return
	}
	mid := last.Fingerprint
	do(kRepeat, churn(up, d1), e2a)
	e2b := append([]int(nil), e2a...)
	d2 := rewires(rng, e1, e2b, in.nodes)
	do(kDeltaChain, churn(mid, d2), e2b)
	do(kRepeat, churn(mid, d2), e2b)
}

func runServiceMix(w workload, p params, tr *tracer, rec *recorder) (setupInfo, error) {
	t0 := time.Now()
	setupSpan := tr.begin(0, 0, "", "setup", 0)
	in, err := newSvcInstance(p)
	if err != nil {
		return setupInfo{}, err
	}
	// Set-up: both clients upload their base graphs side by side.
	var info setupInfo
	var wg sync.WaitGroup
	ups := make([]*recorder, svcClients) // set-up uploads are checked, not reported
	for cl := range ups {
		ups[cl] = newRecorder(w, p, nil)
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for b := 0; b < svcBases; b++ {
				e1, e2 := in.graph(cl, b)
				req := &service.Request{NNode: in.nodes, NParts: svcParts, Procs: svcProcs, Spec: svcSpec, E1: e1, E2: e2}
				in.svcOp(ups[cl], opCtx{}, cl, kUpload, req, e1, e2)
			}
		}(cl)
	}
	wg.Wait()
	for cl, up := range ups {
		if up.failed > 0 {
			in.close()
			return setupInfo{}, fmt.Errorf("set-up upload, client %d: %s", cl, up.firstFail)
		}
		info.virtualS += up.virtualS[kUpload]
	}
	info.wallS = time.Since(t0).Seconds()
	tr.end(setupSpan, info.virtualS)
	if rec == nil {
		return info, in.close()
	}
	defer in.close()

	info.heapMB = liveHeapMB()
	// Warm-up: one generation on client 0 alone, every request also
	// measured for the objects it allocates process-wide (client,
	// codec, server and partitioner together).
	warm := rec.child()
	in.generation(warm, nil, 0, svcBases, func(k int, f func()) { warm.kindAllocs[k] = mallocsOf(f) })
	if warm.failed > 0 {
		return setupInfo{}, fmt.Errorf("warm-up generation: %s", warm.firstFail)
	}
	copy(rec.kindAllocs, warm.kindAllocs)

	before := in.srv.Metrics()
	rec.startTimed()
	// Generations per client: the schedule's rounds shared out, rounded
	// up to an even count so traced and untraced generations pair off.
	rounds := (w.rounds(p) + svcClients - 1) / svcClients
	rounds += rounds % 2
	var late atomic.Bool
	recs := make([]*recorder, svcClients)
	for cl := range recs {
		recs[cl] = rec.child()
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for g := 0; g < rounds && !late.Load(); g++ {
				var gtr *tracer
				if rec.tracedRound(g) {
					gtr = tr
				}
				in.generation(recs[cl], gtr, cl, svcBases+1+g, nil)
				if rec.pastDeadline() {
					late.Store(true)
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, r := range recs {
		rec.absorb(r)
	}
	rec.cutShort = late.Load()
	rec.stopTimed()
	after := in.srv.Metrics()

	if tr != nil {
		l := rec.layers
		deltas := float64(len(rec.wallMS[kDeltaBase]) + len(rec.tracedMS[kDeltaBase]) +
			len(rec.wallMS[kDeltaChain]) + len(rec.tracedMS[kDeltaChain]))
		l["service.served_hit"] = float64(after.Hits - before.Hits)
		l["service.served_cold"] = float64(after.Cold - before.Cold)
		l["service.served_warm"] = float64(after.Warm - before.Warm)
		l["service.served_shared"] = float64(after.Shared - before.Shared)
		l["service.rejected"] = float64(after.Rejected - before.Rejected)
		l["service.warm_ratio"] = float64(after.Warm-before.Warm) / deltas
		l["service.cache_mb"] = float64(after.Cache.Bytes) / 1e6
		l["service.cache_evictions"] = float64(after.Cache.Evictions)
		if err := svcProbes(in, tr, l); err != nil {
			return setupInfo{}, err
		}
	}
	return info, nil
}

// countingConn counts the bytes a client writes to the daemon.
type countingConn struct {
	net.Conn
	wrote int
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.wrote += n
	return n, err
}

// svcProbes splits a cache hit into its in-process and wire shares and
// times the warm repartition next to the cold one it replaces.
func svcProbes(in *svcInstance, tr *tracer, l map[string]float64) error {
	const reps = 50
	e1, e2 := in.graph(0, 0)
	req := &service.Request{NNode: in.nodes, NParts: svcParts, Procs: svcProcs, Spec: svcSpec, E1: e1, E2: e2}

	conn, err := net.Dial("tcp", in.addr)
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: conn}
	cl := service.NewClient(cc)
	defer cl.Close()
	// Prime the cache: the set-up's copy may have been evicted since.
	if _, err := cl.Do(context.Background(), req); err != nil {
		return err
	}
	cc.wrote = 0
	for i := 0; i < reps; i++ {
		var derr error
		var resp *service.Response
		hostProbe(tr, "service.Client.Do hit", func() { resp, derr = cl.Do(context.Background(), req) })
		if derr == nil && resp.Served != service.ServedHit {
			derr = fmt.Errorf("probe upload served %v, want a hit", resp.Served)
		}
		if derr != nil {
			return derr
		}
		hostProbe(tr, "service.Server.Do hit", func() { _, derr = in.srv.Do(context.Background(), req) })
		if derr != nil {
			return derr
		}
	}
	inproc := 1e3 * tr.probeMS("service.Server.Do hit")
	l["service.inproc_repeat_us"] = inproc
	l["service.wire_repeat_us"] = 1e3*tr.probeMS("service.Client.Do hit") - inproc
	l["service.request_kb"] = float64(cc.wrote) / reps / 1e3

	// The partitioner calls behind a cold and a warm answer, at the
	// service's own machine width, on the same graph and a 2 % delta.
	e2n := append([]int(nil), e2...)
	rewires(xrand.New(in.seed), e1, e2n, in.nodes)
	edges := dist.NewBlock(len(e1), svcProcs)
	ml := partition.Multilevel{Seed: svcSpec.Seed}
	var warmAllocs, ladderBytes float64
	var depth int
	cfg := machine.IPSC860(svcProcs)
	cfg.Seed = svcSpec.Seed
	_, err = machine.RunStats(context.Background(), cfg, func(c *machine.Ctx) {
		var rtr *tracer
		if c.Rank() == 0 {
			rtr = tr
		}
		lo, hi := edges.Lo(c.Rank()), edges.Hi(c.Rank())
		g := geocol.Build(c, in.nodes, geocol.WithLink(e1[lo:hi], e2[lo:hi]))
		gn := geocol.Build(c, in.nodes, geocol.WithLink(e1[lo:hi], e2n[lo:hi]))
		var part []int
		var ld *partition.Ladder
		for i := 0; i < 3; i++ {
			spmdProbe(c, rtr, "partition.Multilevel.PartitionLadder", func() { part, ld = ml.PartitionLadder(c, g, svcParts) })
		}
		for i := 0; i < 3; i++ {
			a := spmdProbe(c, rtr, "partition.Multilevel.Repartition", func() {
				sink.Add(int64(len(ml.Repartition(c, gn, svcParts, ld, part))))
			})
			if c.Rank() == 0 {
				warmAllocs = a
			}
		}
		bytes := c.SumInt(ld.Bytes())
		if c.Rank() == 0 {
			depth, ladderBytes = ld.Depth(), float64(bytes)
		}
	})
	if err != nil {
		return err
	}
	l["partition.ml_warm_ms"] = tr.probeMS("partition.Multilevel.Repartition")
	l["partition.ml_warm_virtual_s"] = tr.probeVirtualS("partition.Multilevel.Repartition")
	l["partition.ml_warm_allocs"] = warmAllocs
	l["partition.ml_warm_over_cold"] = tr.probeMS("partition.Multilevel.Repartition") / tr.probeMS("partition.Multilevel.PartitionLadder")
	l["partition.ml_ladder_depth"] = float64(depth)
	l["partition.ml_ladder_mb"] = ladderBytes / 1e6
	return nil
}
