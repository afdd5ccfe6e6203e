package service

import (
	"container/list"
	"math/bits"
	"slices"
	"sync"

	"chaos/internal/partition"
)

// The cache is the paper's schedule-reuse economy lifted to
// cross-request scope: pay for partitioning (and, for MULTILEVEL, for
// building the coarsening ladder) once, then amortize across every
// client of the daemon. Entries are found by name (the fingerprint,
// which distinct graphs may share) and served by content: nothing is
// reused until sameContent has compared the request's graph with the
// one the entry holds. A name is bound to one content while anything is
// cached under it; a request whose name is taken by other content is
// answered, not cached, and its response carries Fingerprint 0.
//
// Two kinds of entries live side by side under one memory cap:
//
//   - graph entries: name → edge lists, kept so
//     later requests can name the graph and ship only a churn delta;
//     each owns the result entries computed for its content;
//   - result entries: (spec, nparts, procs) under a graph entry →
//     finished part vector, stats, and — after a cold distributed
//     MULTILEVEL run — the per-rank retained coarsening ladders that
//     warm-start churned descendants of the graph.
//
// Leases protect entries in use: every read or warm-compute against an
// entry holds a lease (a refcount; a result's lease also counts on its
// graph entry), and the evictor never removes a leased entry, however
// far over the cap the cache is — eviction mid-lease would hand a
// request a part vector or ladder being freed under it. Eviction is LRU
// over the unleased remainder; evicting a graph entry drops its results
// with it, so each cached content is held, and counted, once.
//
// A graph entry also remembers, for the last few churn deltas computed
// against its content, which graph entry holds the content that delta
// derives (a derivation memo). A churn repeat then resolves to that
// entry's content and name without applying its delta, fingerprinting
// the result or comparing it word by word: the content it finds is
// applyDelta(base, delta) by construction, because base content is
// immutable and the memo is checked by delta equality. The memo names
// its target by name and insertion serial, not by pointer, so it keeps
// no evicted content alive and misses once the target is evicted, even
// when the name has been re-bound to other content since.

// resultKey identifies one partition request shape under a graph name.
// The spec is keyed by value: a zero option means its default wherever
// it is, +0 and -0 are equal keys, and Spec.Resolve rejects NaN (which
// would equal no key), so two specs that mean the same thing hit the
// same entry — exactly the specs whose Spec.String forms agree.
type resultKey struct {
	fp     Fingerprint
	spec   partition.Spec
	nparts int
	procs  int
}

// graphContent is the server-side graph payload: the canonical,
// immutable content a fingerprint names.
type graphContent struct {
	n      int
	e1, e2 []int
}

// bytes reports the heap footprint of the content.
func (gc *graphContent) bytes() int64 { return int64(8 * (len(gc.e1) + len(gc.e2))) }

// Fingerprint constants: fixed, so every process names a graph alike;
// fpTag is bumped whenever the function changes.
const (
	fpTag = 0x63686165736433 // "chaosd3"
	fpK0  = 0xa0761d6478bd642f
	fpK1  = 0xe7037ed1a0b428db
	fpK2  = 0x8ebc6af09c88c6e3
	fpK3  = 0x589965cc75374cc3
)

// fingerprint names the content: a multiply-mix over its canonical
// 64-bit words — tag, n, edge count and the (e1[i], e2[i]) pairs. It reads
// values, not memory, so it is the same on every architecture; it is
// never 0 ("no base" on the wire); and it has no secret, so it is a
// name, not a proof.
//
//chaos:hotpath
func (gc *graphContent) fingerprint() Fingerprint {
	h := fpMix(fpTag^fpK0, uint64(gc.n)^fpK1)
	h = fpEdges(h, gc.e1, gc.e2)
	if h == 0 {
		return 1
	}
	return Fingerprint(h)
}

// fpMix folds the 128-bit product of a and b to 64 bits.
func fpMix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// fpEdges absorbs the edge count and the endpoint pairs, four pairs at
// a time into four independent lanes so the multiplies overlap.
//
//chaos:hotpath
func fpEdges(h uint64, e1, e2 []int) uint64 {
	n := len(e1)
	e2 = e2[:n]
	a := fpMix(h^fpK0, uint64(n)^fpK1)
	b, c, d := a^fpK1, a^fpK2, a^fpK3
	i := 0
	for ; i+4 <= n; i += 4 {
		a = fpMix(uint64(e1[i])^fpK0, uint64(e2[i])^a)
		b = fpMix(uint64(e1[i+1])^fpK1, uint64(e2[i+1])^b)
		c = fpMix(uint64(e1[i+2])^fpK2, uint64(e2[i+2])^c)
		d = fpMix(uint64(e1[i+3])^fpK3, uint64(e2[i+3])^d)
	}
	for ; i < n; i++ {
		a = fpMix(uint64(e1[i])^fpK0, uint64(e2[i])^a)
	}
	return fpMix(fpMix(a, b^fpK0)^c, d^fpK1)
}

// sameContent reports whether a and b are the same graph: equal over
// exactly the words fingerprint reads.
//
//chaos:hotpath
func sameContent(a, b *graphContent) bool {
	if a == b {
		return true
	}
	return a.n == b.n && slices.Equal(a.e1, b.e1) && slices.Equal(a.e2, b.e2)
}

// graphEntry is one cached graph payload and the results computed for
// it.
type graphEntry struct {
	fp      Fingerprint
	serial  uint64 // insertion serial, unique per entry
	gc      *graphContent
	results *resultEntry // computed for gc, linked by next
	derived []derivation // oldest first; at most maxDerivations
	size    int64        // gc and derived
	leases  int          // its own and its results' leases
	elem    *list.Element
}

// derivation records that applyDelta(gc, delta) of the entry holding
// it is the content of the graph entry inserted with serial under
// name, while that entry is resident.
type derivation struct {
	delta  []EdgeRewire
	name   Fingerprint
	serial uint64
}

// maxDerivations bounds a graph entry's derivation memo.
const maxDerivations = 4

// bytes reports the memo footprint of one derivation.
func (d *derivation) bytes() int64 { return int64(16*len(d.delta)) + 48 }

// find returns the index of delta's record in ge's memo, or -1.
func (ge *graphEntry) find(delta []EdgeRewire) int {
	return slices.IndexFunc(ge.derived, func(d derivation) bool { return slices.Equal(d.delta, delta) })
}

// resultEntry is one cached partition result. part, cut and the
// timing figures are immutable after insertion; ladders are mutable
// scratch-bearing state, so warm computes serialize on warmMu (and
// hold a lease, so the entry cannot be evicted mid-compute).
type resultEntry struct {
	key resultKey
	// g is the graph entry whose content the result was computed for
	// (nil for an answer that was not cached); next links g's results.
	g        *graphEntry
	next     *resultEntry
	part     []int
	cut      int
	virtualS float64
	wallMS   float64
	// ladders holds the per-rank retained coarsening ladders of the
	// cold run that produced this entry; nil when the serial path ran
	// or the entry came from a warm/non-multilevel compute.
	ladders []*partition.Ladder
	// warmMu serializes warm repartitions off this entry's ladders:
	// the ladders share one scratch arena per rank, so two concurrent
	// warm computes against the same base would race on it.
	warmMu sync.Mutex
	// frame is the msgOK frame every wire hit on the entry sends, built
	// once and immutable after.
	frame     []byte
	frameOnce sync.Once

	size   int64
	leases int
	elem   *list.Element
}

// hasLadders reports whether the entry can warm-start a same-shape
// repartition at the given machine width.
func (e *resultEntry) hasLadders(n, nparts, procs int) bool {
	if len(e.ladders) != procs {
		return false
	}
	for _, ld := range e.ladders {
		if ld == nil || ld.Depth() == 0 || ld.N() != n || ld.NParts() != nparts {
			return false
		}
	}
	return true
}

// CacheStats is a point-in-time cache summary.
type CacheStats struct {
	Graphs    int
	Results   int
	Bytes     int64
	CapBytes  int64
	Evictions int64
}

// cache is the shared store. All fields are guarded by mu; leases are
// manipulated only under it.
type cache struct {
	mu        sync.Mutex
	capBytes  int64
	used      int64
	graphs    map[Fingerprint]*graphEntry
	results   map[resultKey]*resultEntry
	lru       *list.List // *graphEntry | *resultEntry; front = oldest
	evictions int64
	serial    uint64 // last graph entry's insertion serial
}

func newCache(capBytes int64) *cache {
	return &cache{
		capBytes: capBytes,
		graphs:   make(map[Fingerprint]*graphEntry),
		results:  make(map[resultKey]*resultEntry),
		lru:      list.New(),
	}
}

// putGraph returns the graph entry named fp with one lease held,
// inserting gc under that name when the name is free; the caller must
// releaseGraph it. It returns nil when fp names different content.
func (c *cache) putGraph(fp Fingerprint, gc *graphContent) *graphEntry {
	c.mu.Lock()
	ge, ok := c.graphs[fp]
	if ok {
		ge.leases++
		c.lru.MoveToBack(ge.elem)
	} else {
		c.serial++
		ge = &graphEntry{fp: fp, serial: c.serial, gc: gc, size: gc.bytes() + 64, leases: 1}
		ge.elem = c.lru.PushBack(ge)
		c.graphs[fp] = ge
		c.used += ge.size
		c.evict()
	}
	c.mu.Unlock()
	if ok && !sameContent(ge.gc, gc) {
		c.releaseGraph(ge)
		return nil
	}
	return ge
}

// leaseGraph returns the graph entry named fp with one lease held, or
// false when the name is unknown (evicted or never issued).
func (c *cache) leaseGraph(fp Fingerprint) (*graphEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ge, ok := c.graphs[fp]
	if !ok {
		return nil, false
	}
	ge.leases++
	c.lru.MoveToBack(ge.elem)
	return ge, true
}

func (c *cache) releaseGraph(ge *graphEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ge.leases--
	c.evict()
}

// derivedFrom returns the content applyDelta(base.gc, delta) and its
// name when base's memo holds delta and the entry it names is still
// the one recorded; otherwise nil. The caller has range-checked delta
// against base.gc.
func (c *cache) derivedFrom(base *graphEntry, delta []EdgeRewire) (*graphContent, Fingerprint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := base.find(delta); i >= 0 {
		d := base.derived[i]
		if ge := c.graphs[d.name]; ge != nil && ge.serial == d.serial {
			return ge.gc, ge.fp
		}
	}
	return nil, 0
}

// derive records in base's memo that child, which the caller leases,
// holds applyDelta(base.gc, delta), and charges the memo to base. It
// replaces an earlier record of the same delta and drops the oldest
// one past maxDerivations. A base no longer resident records nothing:
// no request could find its memo.
func (c *cache) derive(base *graphEntry, delta []EdgeRewire, child *graphEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.graphs[base.fp] != base {
		return
	}
	d := derivation{delta: delta, name: child.fp, serial: child.serial}
	if i := base.find(delta); i >= 0 {
		base.derived[i] = d // same delta, same bytes
		return
	}
	if len(base.derived) == maxDerivations {
		c.charge(base, -base.derived[0].bytes())
		base.derived = slices.Delete(base.derived, 0, 1)
	}
	base.derived = append(base.derived, d)
	c.charge(base, d.bytes())
	c.evict()
}

// charge adds b bytes to a resident graph entry. Caller holds mu.
func (c *cache) charge(ge *graphEntry, b int64) {
	ge.size += b
	c.used += b
}

// putResult caches e as computed for ge's content (the caller holds a
// lease on ge) and returns the canonical entry with one lease held.
// When an entry for the same key raced in first, it wins and e is
// dropped: both are correct partitions of this content.
func (c *cache) putResult(ge *graphEntry, e *resultEntry) *resultEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.results[e.key]; ok {
		old.leases++
		ge.leases++
		c.lru.MoveToBack(old.elem)
		return old
	}
	e.g, e.next, ge.results = ge, ge.results, e
	e.size = int64(8*len(e.part)) + 128
	for _, ld := range e.ladders {
		e.size += int64(ld.Bytes())
	}
	e.leases++
	ge.leases++
	e.elem = c.lru.PushBack(e)
	c.results[e.key] = e
	c.used += e.size
	c.evict()
	return e
}

// leaseResult returns the result entry for key with one lease held,
// or nil when there is none or it was computed for content other than
// gc. The comparison runs outside mu: contents are immutable, and the
// lease keeps the entry cached meanwhile.
func (c *cache) leaseResult(key resultKey, gc *graphContent) *resultEntry {
	c.mu.Lock()
	e := c.results[key]
	if e != nil {
		e.leases++
		e.g.leases++
		c.lru.MoveToBack(e.g.elem)
		c.lru.MoveToBack(e.elem)
	}
	c.mu.Unlock()
	if e != nil && !sameContent(e.g.gc, gc) {
		c.releaseResult(e)
		return nil
	}
	return e
}

// frame returns the msgOK frame every wire hit on e sends. The first
// call builds it (normally the worker's, once e's answer is out; else
// a hit that got there first) and charges its bytes to e if e is still
// cached. No lease is needed: e's part vector and stats are immutable,
// and so is the frame.
func (c *cache) frame(e *resultEntry) []byte {
	e.frameOnce.Do(func() {
		resp := e.response(ServedHit)
		e.frame = endFrame(appendResponse(beginFrame(nil, msgOK), &resp))
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.results[e.key] == e {
			e.size += int64(len(e.frame))
			c.used += int64(len(e.frame))
			c.evict()
		}
	})
	return e.frame
}

func (c *cache) releaseResult(e *resultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.leases--
	e.g.leases--
	c.evict()
}

// evict walks the LRU from the oldest end, removing unleased entries
// until the cache fits its cap. Leased entries are skipped — never
// evicted mid-lease — so the cache can transiently exceed the cap
// while every resident entry is in use. A graph entry goes with its
// results (none of which is leased when it is not). Caller holds mu.
func (c *cache) evict() {
	if c.capBytes <= 0 {
		return // unbounded
	}
	for el := c.lru.Front(); el != nil && c.used > c.capBytes; {
		next := el.Next()
		switch e := el.Value.(type) {
		case *graphEntry:
			if e.leases == 0 {
				for r := e.results; r != nil; r = r.next {
					delete(c.results, r.key)
					c.drop(r.elem, r.size)
				}
				next = el.Next() // a result may have been next
				delete(c.graphs, e.fp)
				c.drop(el, e.size)
			}
		case *resultEntry:
			if e.leases == 0 {
				for p := &e.g.results; *p != nil; p = &(*p).next {
					if *p == e {
						*p = e.next
						break
					}
				}
				delete(c.results, e.key)
				c.drop(el, e.size)
			}
		}
		el = next
	}
}

// drop removes one entry's element and bytes. Caller holds mu.
func (c *cache) drop(el *list.Element, size int64) {
	c.lru.Remove(el)
	c.used -= size
	c.evictions++
}

// stats snapshots the cache counters.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Graphs:    len(c.graphs),
		Results:   len(c.results),
		Bytes:     c.used,
		CapBytes:  c.capBytes,
		Evictions: c.evictions,
	}
}
