package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaos/internal/partition"
)

// These tests hold the cache to its specification while names
// collide on purpose: Server.fingerprint is replaced by a constant or
// by a 2-bit function, so unrelated graphs share names all the time,
// and every answer is judged against the request's own content.

func constantName(*graphContent) Fingerprint { return 7 }

func twoBitName(gc *graphContent) Fingerprint { return 1 + gc.fingerprint()&3 }

// words is the test's own definition of "the same graph": the
// canonical word sequence.
func words(gc *graphContent) string {
	var b []byte
	w := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	w(uint64(gc.n))
	w(uint64(len(gc.e1)))
	for i := range gc.e1 {
		w(uint64(gc.e1[i]))
		w(uint64(gc.e2[i]))
	}
	return string(b)
}

// shape is one request shape of a program; the result key is the
// graph's name plus the shape.
type shape struct {
	spec          partition.Spec
	nparts, procs int
}

// programSet is what a program draws its requests from.
type programSet struct {
	contents []*graphContent
	shapes   []shape
}

// newProgramSet builds three edge sets of n vertices, each as it is
// and with its last edge re-pointed at either of two vertices — nine
// contents, each of the three that share an edge set differing from
// the others in one word.
func newProgramSet(n, degree int, shapes ...shape) programSet {
	var ps programSet
	for v := 0; v < 3; v++ {
		e1, e2 := LoadGraph(v, n, degree)
		base := &graphContent{n: n, e1: e1, e2: e2}
		ps.contents = append(ps.contents, base)
		for _, end := range []int{0, 1} {
			if end == e2[len(e2)-1] {
				end = 2
			}
			ps.contents = append(ps.contents, applyDelta(base, []EdgeRewire{{Edge: len(e1) - 1, NewEnd: end}}))
		}
	}
	ps.shapes = shapes
	return ps
}

// chooser draws a program's choices: from a seeded PRNG, or from the
// fuzzer's bytes until they run out.
type chooser struct {
	rng  *rand.Rand
	data []byte
}

func (c *chooser) more() bool { return c.rng != nil || len(c.data) > 0 }

func (c *chooser) pick(n int) int {
	if c.rng != nil {
		return c.rng.Intn(n)
	}
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

// answered is one successful response and what it answered; a churn
// request's also keeps its base name, the content that name was bound
// to, and its delta.
type answered struct {
	gc     *graphContent
	words  string
	shape  int
	resp   *Response
	base   Fingerprint
	baseGC *graphContent
	delta  []EdgeRewire
}

// verifier judges every answer of one program.
type verifier struct {
	t       *testing.T
	mu      sync.Mutex
	answers []answered
	// names maps a name to the content words it was last issued for.
	// Under a bounded cache a name is re-bound once its content is
	// evicted; a name issued for two contents within one burst maps to
	// "", since the order they were bound in is unknown.
	names   map[Fingerprint]string
	evicts  bool // the cache is bounded
	inBurst bool
}

// current reports whether name is known to be bound to the content
// with these words: an unbounded cache never re-binds a name, and
// under a bounded one the last answer issued it after every other
// binding.
func (v *verifier) current(name Fingerprint, words string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.names[name] == words
}

// check judges one answer on the spot: a partition of the request's
// own content whose cut is the recount, under a name bound to no other
// content while anything is cached under it.
func (v *verifier) check(what string, a answered, nparts int) {
	v.t.Helper()
	gc, resp := a.gc, a.resp
	if len(resp.Part) != gc.n {
		v.t.Errorf("%s: %d parts for %d vertices", what, len(resp.Part), gc.n)
		return
	}
	for i, p := range resp.Part {
		if p < 0 || p >= nparts {
			v.t.Errorf("%s: part[%d] = %d out of range [0, %d)", what, i, p, nparts)
			return
		}
	}
	if got := partition.EdgeListCut(gc.e1, gc.e2, resp.Part); got != resp.Cut {
		v.t.Errorf("%s (%v): cut %d, recounted on the request's content %d", what, resp.Served, resp.Cut, got)
	}
	a.words = words(gc)
	v.mu.Lock()
	defer v.mu.Unlock()
	if fp := resp.Fingerprint; fp != 0 {
		prev, ok := v.names[fp]
		switch {
		case !ok || prev == a.words:
			v.names[fp] = a.words
		case !v.evicts:
			v.t.Errorf("%s: name %s issued for two different graphs", what, fp)
		case v.inBurst:
			v.names[fp] = ""
		default:
			v.names[fp] = a.words
		}
	}
	v.answers = append(v.answers, a)
}

// reuseChecked judges every reused answer once the program is over:
// each hit and each shared answer is a part vector that a compute of
// identical content at the same shape produced.
func (v *verifier) reuseChecked() {
	computed := map[string][][]int{}
	for _, a := range v.answers {
		if s := a.resp.Served; s == ServedCold || s == ServedWarm {
			k := fmt.Sprint(a.shape, words(a.gc))
			computed[k] = append(computed[k], a.resp.Part)
		}
	}
	for i, a := range v.answers {
		if s := a.resp.Served; s != ServedHit && s != ServedShared {
			continue
		}
		found := false
		for _, part := range computed[fmt.Sprint(a.shape, words(a.gc))] {
			found = found || reflect.DeepEqual(part, a.resp.Part)
		}
		if !found {
			v.t.Errorf("answer %d (%v): no compute of this content at this shape produced its part vector", i, a.resp.Served)
		}
	}
}

// runProgram drives s, through do (Server.Do, or a wire client's Do),
// with up to ops requests drawn by ch from ps —
// uploads, exact repeats, deltas against named answers (chained ones
// included), repeats of those deltas, deltas against unnamed answers,
// and bursts of concurrent identical and colliding uploads — and checks
// every answer. Under a bounded cache a delta whose base was evicted
// may be answered ErrUnknownGraph. It returns the verifier for the
// program's totals.
func runProgram(t *testing.T, s *Server, do func(context.Context, *Request) (*Response, error), ps programSet, ch *chooser, ops int) *verifier {
	t.Helper()
	ctx := context.Background()
	v := &verifier{t: t, names: map[Fingerprint]string{}, evicts: s.cache.capBytes > 0}
	upload := func(gc *graphContent, sh int) *Request {
		return &Request{NNode: gc.n, NParts: ps.shapes[sh].nparts, Procs: ps.shapes[sh].procs, Spec: ps.shapes[sh].spec,
			E1: append([]int(nil), gc.e1...), E2: append([]int(nil), gc.e2...)}
	}
	answer := func(what string, gc *graphContent, sh int, req *Request) {
		resp, err := do(ctx, req)
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		v.check(what, answered{gc: gc, shape: sh, resp: resp}, req.NParts)
	}
	// pick draws one of the earlier answers that keep.
	pick := func(keep func(answered) bool) (answered, bool) {
		var pool []answered
		for _, a := range v.answers {
			if keep(a) {
				pool = append(pool, a)
			}
		}
		if len(pool) == 0 {
			return answered{}, false
		}
		return pool[ch.pick(len(pool))], true
	}
	rewires := func(gc *graphContent) []EdgeRewire {
		delta := make([]EdgeRewire, 1+ch.pick(2))
		for i := range delta {
			delta[i] = EdgeRewire{Edge: ch.pick(len(gc.e1)), NewEnd: ch.pick(gc.n)}
		}
		return delta
	}
	churn := func(what string, base Fingerprint, baseGC *graphContent, sh int, delta []EdgeRewire) {
		req := &Request{NNode: baseGC.n, NParts: ps.shapes[sh].nparts, Procs: ps.shapes[sh].procs, Spec: ps.shapes[sh].spec,
			Base: base, Delta: delta}
		gc := applyDelta(baseGC, delta)
		resp, err := do(ctx, req)
		if err != nil {
			if !(v.evicts && errors.Is(err, ErrUnknownGraph)) {
				t.Errorf("%s: %v", what, err)
			}
			return
		}
		v.check(what, answered{gc: gc, shape: sh, resp: resp, base: base, baseGC: baseGC, delta: delta}, req.NParts)
	}
	for op := 0; op < ops && ch.more(); op++ {
		sh := ch.pick(len(ps.shapes))
		switch ch.pick(7) {
		case 0, 1: // upload, or an exact repeat of one
			gc := ps.contents[ch.pick(len(ps.contents))]
			answer(fmt.Sprintf("op %d upload", op), gc, sh, upload(gc, sh))
		case 2, 3: // delta against a named answer; chained when that answer was a delta
			a, ok := pick(func(a answered) bool { return a.resp.Fingerprint != 0 && v.current(a.resp.Fingerprint, a.words) })
			if !ok {
				continue
			}
			if ch.pick(3) > 0 {
				sh = a.shape // same shape: the base's ladder can warm-start it
			}
			churn(fmt.Sprintf("op %d delta", op), a.resp.Fingerprint, a.gc, sh, rewires(a.gc))
		case 6: // repeat an earlier delta, in a fresh slice, against the same base
			a, ok := pick(func(a answered) bool {
				return a.baseGC != nil && v.current(a.base, words(a.baseGC))
			})
			if !ok {
				continue
			}
			if ch.pick(3) > 0 {
				sh = a.shape // same shape: a hit through the base's derivation memo
			}
			churn(fmt.Sprintf("op %d delta repeat", op), a.base, a.baseGC, sh, append([]EdgeRewire(nil), a.delta...))
		case 4: // delta against an unnamed answer
			a, ok := pick(func(a answered) bool { return a.resp.Fingerprint == 0 })
			if !ok {
				continue
			}
			_, err := do(ctx, &Request{NNode: a.gc.n, NParts: ps.shapes[sh].nparts, Procs: ps.shapes[sh].procs,
				Spec: ps.shapes[sh].spec, Base: 0, Delta: rewires(a.gc)})
			if !errors.Is(err, ErrUnknownGraph) {
				t.Errorf("op %d: delta against an unnamed answer: err = %v, want ErrUnknownGraph", op, err)
			}
		case 5: // burst: concurrent copies of one upload and colliding others
			k := 2 + ch.pick(3)
			gcs := make([]*graphContent, k)
			for i := range gcs {
				gcs[i] = ps.contents[ch.pick(len(ps.contents))]
				if i > 0 && ch.pick(2) == 0 {
					gcs[i] = gcs[0]
				}
			}
			var wg sync.WaitGroup
			v.inBurst = true
			for i, gc := range gcs {
				req := upload(gc, sh)
				wg.Add(1)
				go func() {
					defer wg.Done()
					answer(fmt.Sprintf("op %d burst %d", op, i), gc, sh, req)
				}()
			}
			wg.Wait()
			v.inBurst = false
		}
	}
	v.reuseChecked()
	return v
}

// TestVerifiedCacheUnderCollidingNames runs random request programs
// under a constant and a 2-bit name function on graphs big enough for
// the warm path, in-process and over the wire, and checks the cache's
// contract on every answer.
func TestVerifiedCacheUnderCollidingNames(t *testing.T) {
	ps := newProgramSet(testNNode, testDegree,
		shape{spec: testSpec(), nparts: testNParts, procs: testProcs},
		shape{spec: testSpec(), nparts: 3, procs: testProcs})
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for _, seam := range []struct {
		name string
		fn   func(*graphContent) Fingerprint
	}{{"constant", constantName}, {"2-bit", twoBitName}} {
		for seed := 1; seed <= seeds; seed++ {
			program := func(t *testing.T, wire bool) {
				s := New(Options{Workers: 2, CacheBytes: -1})
				defer s.Close()
				s.fingerprint = seam.fn
				do := s.Do
				if wire {
					do = serveWire(t, s)
				}
				v := runProgram(t, s, do, ps, &chooser{rng: rand.New(rand.NewSource(int64(seed)))}, 40)
				m := s.Metrics()
				unnamed := 0
				for _, a := range v.answers {
					if a.resp.Fingerprint == 0 {
						unnamed++
					}
				}
				t.Logf("%d answers, %d unnamed; hits=%d cold=%d warm=%d shared=%d", len(v.answers), unnamed, m.Hits, m.Cold, m.Warm, m.Shared)
				if m.Hits == 0 || m.Warm == 0 || unnamed == 0 {
					t.Errorf("program exercised too little: hits=%d warm=%d unnamed=%d", m.Hits, m.Warm, unnamed)
				}
			}
			name := fmt.Sprintf("%s/seed=%d", seam.name, seed)
			t.Run(name, func(t *testing.T) { program(t, false) })
			t.Run(name+"/wire", func(t *testing.T) { program(t, true) })
		}
	}
	t.Run("memo/rebound-child", testMemoMissesReboundChild)
}

// testMemoMissesReboundChild pins the derivation memo's lifetime: a
// churn repeat resolves through its base's memo only while the entry
// the memo names is the one its delta derived. Here that entry is
// evicted and its name re-bound to another graph with a result at the
// same shape; the repeat must then be computed for its own content, as
// a fresh server computes it, not served the other graph's result.
func testMemoMissesReboundChild(t *testing.T) {
	s := New(Options{Workers: 1, CacheBytes: -1})
	defer s.Close()
	ctx := context.Background()
	b, c := testRequest(0), testRequest(1)
	delta := []EdgeRewire{{Edge: testNNode + 4, NewEnd: 99}, {Edge: testNNode + 9, NewEnd: 7}}
	contentOf := func(r *Request) *graphContent { return &graphContent{n: r.NNode, e1: r.E1, e2: r.E2} }
	d := applyDelta(contentOf(b), delta)
	fpB, fpC, fpD := contentOf(b).fingerprint(), contentOf(c).fingerprint(), d.fingerprint()
	var named atomic.Int64
	s.fingerprint = func(gc *graphContent) Fingerprint {
		named.Add(1)
		switch gc.fingerprint() {
		case fpB:
			return 11
		case fpC, fpD:
			return 12 // the child and c share a name
		}
		return gc.fingerprint()
	}
	churn := func() *Request {
		return &Request{NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(),
			Base: 11, Delta: append([]EdgeRewire(nil), delta...)}
	}

	if up, err := s.Do(ctx, b); err != nil || up.Fingerprint != 11 {
		t.Fatalf("upload b: fingerprint %v, err %v", up.Fingerprint, err)
	}
	if first, err := s.Do(ctx, churn()); err != nil || first.Fingerprint != 12 {
		t.Fatalf("delta: fingerprint %v, err %v", first.Fingerprint, err)
	}
	before := named.Load()
	if hit, err := s.Do(ctx, churn()); err != nil || hit.Served != ServedHit {
		t.Fatalf("delta repeat: served %v, err %v; want a hit", hit.Served, err)
	}
	if n := named.Load() - before; n != 0 {
		t.Fatalf("delta repeat named its content %d times; the memo should have resolved it", n)
	}

	// Evict the child (and every result) while b stays resident, then
	// bind the child's name to c.
	ge, _ := s.cache.leaseGraph(11)
	s.cache.mu.Lock()
	s.cache.capBytes = 1
	s.cache.evict()
	s.cache.capBytes = -1
	s.cache.mu.Unlock()
	s.cache.releaseGraph(ge)
	if _, ok := s.cache.leaseGraph(12); ok {
		t.Fatal("the child survived eviction")
	}
	if up, err := s.Do(ctx, c); err != nil || up.Fingerprint != 12 {
		t.Fatalf("upload c: fingerprint %v, err %v", up.Fingerprint, err)
	}

	got, err := s.Do(ctx, churn())
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	defer fresh.Close()
	want, err := fresh.Do(ctx, &Request{NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(), E1: d.e1, E2: d.e2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Served != ServedCold || got.Fingerprint != 0 || !reflect.DeepEqual(got.Part, want.Part) || got.Cut != want.Cut {
		t.Fatalf("repeat after the child's name was re-bound: served %v, fingerprint %v, cut %d (fresh compute: cut %d, same part %v); want cold, unnamed, the fresh answer",
			got.Served, got.Fingerprint, got.Cut, want.Cut, reflect.DeepEqual(got.Part, want.Part))
	}
}

// TestWarmBaseIsTheNamedContent pins rule (2)'s warm half: a churn
// request is warm-started only off a result computed for the content
// its Base named at admission. Here the name is re-bound to another
// graph while the request waits in the queue; the request must then be
// computed cold, exactly as a fresh server computes its content.
func TestWarmBaseIsTheNamedContent(t *testing.T) {
	s := New(Options{Workers: 1, CacheBytes: -1})
	defer s.Close()
	ctx := context.Background()
	b, a, plug := testRequest(0), testRequest(1), testRequest(2)
	contentOf := func(r *Request) *graphContent { return &graphContent{n: r.NNode, e1: r.E1, e2: r.E2} }
	fpB, fpA, fpPlug := contentOf(b).fingerprint(), contentOf(a).fingerprint(), contentOf(plug).fingerprint()
	s.fingerprint = func(gc *graphContent) Fingerprint {
		if fp := gc.fingerprint(); fp != fpA && fp != fpB {
			return fp
		}
		return 5 // b and a share a name
	}
	inCompute, gate := make(chan struct{}), make(chan struct{})
	s.compute = func(jctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error) {
		if gc.fingerprint() == fpPlug {
			close(inCompute)
			<-gate
		}
		return computePartition(jctx, gc, sp, nparts, procs, warm)
	}

	if resp, err := s.Do(ctx, b); err != nil || resp.Fingerprint != 5 {
		t.Fatalf("upload b: fingerprint %v, err %v", resp.Fingerprint, err)
	}
	plugged := make(chan error, 1)
	go func() { _, err := s.Do(ctx, plug); plugged <- err }()
	<-inCompute

	d := &Request{NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(),
		Base: 5, Delta: []EdgeRewire{{Edge: testNNode + 4, NewEnd: 99}}}
	got := make(chan *Response, 1)
	go func() {
		resp, err := s.Do(ctx, d)
		if err != nil {
			t.Errorf("delta: %v", err)
		}
		got <- resp
	}()
	for deadline := time.After(5 * time.Second); len(s.work) == 0; {
		select {
		case <-deadline:
			t.Fatal("the delta never reached the queue")
		case <-time.After(time.Millisecond):
		}
	}

	// Re-bind name 5: b's entries are evicted, and a — with a ladder of
	// its own at the delta's shape — is cached under it.
	s.cache.mu.Lock()
	s.cache.capBytes = 1
	s.cache.evict()
	s.cache.capBytes = -1
	s.cache.mu.Unlock()
	res, err := computePartition(ctx, contentOf(a), testSpec(), testNParts, testProcs, nil)
	if err != nil || res.ladders == nil {
		t.Fatalf("computing a: ladders %v, err %v", res.ladders != nil, err)
	}
	ge := s.cache.putGraph(5, contentOf(a))
	key := resultKey{fp: 5, spec: testSpec(), nparts: testNParts, procs: testProcs}
	s.cache.releaseResult(s.cache.putResult(ge, &resultEntry{key: key, part: res.part, cut: res.cut, ladders: res.ladders}))
	s.cache.releaseGraph(ge)

	close(gate)
	if err := <-plugged; err != nil {
		t.Fatalf("plug: %v", err)
	}
	warm := <-got
	if warm == nil {
		return
	}
	fresh := New(Options{})
	defer fresh.Close()
	if _, err := fresh.Do(ctx, b); err != nil {
		t.Fatal(err)
	}
	cg := applyDelta(contentOf(b), d.Delta)
	want, err := fresh.Do(ctx, &Request{NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(), E1: cg.e1, E2: cg.e2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Served != ServedCold || !reflect.DeepEqual(warm.Part, want.Part) {
		t.Fatalf("delta off a re-bound name served %v (same part as a cold compute: %v), want cold",
			warm.Served, reflect.DeepEqual(warm.Part, want.Part))
	}
}

// TestPanicContained pins the daemon's survival of its own bugs: a
// compute that panics outside the partitioner fails only its request —
// with every lease and the warm base's warmMu given back, so the next
// warm request off the same base is served warm — and a panic on a
// connection drops only that connection.
func TestPanicContained(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	cold, err := s.Do(ctx, testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	s.compute = func(jctx context.Context, gc *graphContent, sp partition.Spec, nparts, procs int, warm *warmSource) (*computeResult, error) {
		if warm != nil && armed.CompareAndSwap(true, false) {
			panic("injected")
		}
		return computePartition(jctx, gc, sp, nparts, procs, warm)
	}
	churn := func(edge int) *Request {
		return &Request{NNode: testNNode, NParts: testNParts, Procs: testProcs, Spec: testSpec(),
			Base: cold.Fingerprint, Delta: []EdgeRewire{{Edge: edge, NewEnd: 17}}}
	}
	if _, err := s.Do(ctx, churn(testNNode+1)); !errors.Is(err, errInternal) {
		t.Fatalf("panicking compute: err = %v, want errInternal", err)
	}
	warm, err := s.Do(ctx, churn(testNNode+2))
	if err != nil || warm.Served != ServedWarm {
		t.Fatalf("next warm request off the same base: served %v, err %v", warm.Served, err)
	}
	s.cache.mu.Lock()
	for _, ge := range s.cache.graphs {
		if ge.leases != 0 {
			t.Errorf("graph %s still holds %d leases", ge.fp, ge.leases)
		}
	}
	for _, e := range s.cache.results {
		if e.leases != 0 {
			t.Errorf("a result of graph %s still holds %d leases", e.key.fp, e.leases)
		}
	}
	s.cache.mu.Unlock()

	// A panic on a connection: admission names the graph on the
	// connection's goroutine.
	s.fingerprint = func(gc *graphContent) Fingerprint {
		if gc.n == testNNode-1 {
			panic("injected")
		}
		return gc.fingerprint()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	bad, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	e1, e2 := LoadGraph(0, testNNode-1, testDegree)
	if _, err := bad.Do(ctx, &Request{NNode: testNNode - 1, NParts: 2, Spec: testSpec(), E1: e1, E2: e2}); err == nil {
		t.Fatalf("a request that panics its connection was answered")
	}
	good, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if hit, err := good.Do(ctx, testRequest(0)); err != nil || hit.Served != ServedHit {
		t.Fatalf("after a dropped connection: served %v, err %v; want a hit", hit.Served, err)
	}
	if n := s.metrics.panics.Load(); n != 2 {
		t.Fatalf("panics counted = %d, want 2", n)
	}
}
