package service

import (
	"testing"

	"chaos/internal/partition"
)

// mkResult builds a result entry whose part vector dominates its
// size: 8*n bytes + 128 overhead.
func mkResult(fp Fingerprint, n int) *resultEntry {
	return &resultEntry{
		key:  resultKey{fp: fp, spec: partition.Spec{Method: partition.MethodMultilevel}, nparts: 2, procs: 1},
		part: make([]int, n),
	}
}

// tiny is the content every test result below is computed for; a
// graph entry of it costs 64 bytes.
func tiny() *graphContent { return &graphContent{n: 1} }

// putResult caches a result under a tiny graph named fp and returns it
// leased, as the server does after a compute.
func putResult(c *cache, fp Fingerprint, n int) *resultEntry {
	ge := c.putGraph(fp, tiny())
	defer c.releaseGraph(ge)
	return c.putResult(ge, mkResult(fp, n))
}

// lease looks up the result putResult cached under fp.
func lease(c *cache, fp Fingerprint) (*resultEntry, bool) {
	e := c.leaseResult(resultKey{fp: fp, spec: partition.Spec{Method: partition.MethodMultilevel}, nparts: 2, procs: 1}, tiny())
	return e, e != nil
}

// TestCacheEvictionNeverMidLease pins the lease contract: however far
// over its cap the cache is pushed, a leased entry survives; the
// moment its lease drops it becomes fair game.
func TestCacheEvictionNeverMidLease(t *testing.T) {
	// Cap fits roughly two 100-part results (928 bytes each, plus 64
	// for the graph each was computed for).
	c := newCache(2000)

	a := putResult(c, 1, 100) // leased by put
	b := putResult(c, 2, 100)
	c.releaseResult(b) // a stays leased; b is evictable

	// Blow past the cap repeatedly. a is leased and must survive every
	// eviction pass; the filler entries and b go.
	for fp := Fingerprint(10); fp < 20; fp++ {
		c.releaseResult(putResult(c, fp, 100))
	}
	if _, ok := lease(c, 1); !ok {
		t.Fatalf("leased entry was evicted")
	}
	c.releaseResult(a) // drop the extra lease taken just above

	if st := c.stats(); st.Evictions == 0 {
		t.Fatalf("no evictions despite cap pressure (bytes=%d cap=%d)", st.Bytes, st.CapBytes)
	}
	if _, ok := lease(c, 2); ok {
		t.Fatalf("unleased older entry survived cap pressure that should have evicted it")
	}

	// Release a's original lease: the next cap overflow may now evict
	// it like anything else.
	c.releaseResult(a)
	for fp := Fingerprint(30); fp < 40; fp++ {
		c.releaseResult(putResult(c, fp, 100))
	}
	if _, ok := lease(c, 1); ok {
		t.Fatalf("released entry survived cap pressure; lease leak?")
	}
}

// TestCacheLRUOrder pins the eviction order: oldest unleased first,
// recently-touched entries last.
func TestCacheLRUOrder(t *testing.T) {
	// Fits three 100-part results with their graphs (3 × 992 bytes) and
	// one hit frame (128 bytes).
	c := newCache(3104)
	for fp := Fingerprint(1); fp <= 3; fp++ {
		c.releaseResult(putResult(c, fp, 100))
	}
	// Touch entry 1 with a wire hit: it becomes most-recent, and 2 is
	// now oldest.
	e, ok := lease(c, 1)
	if !ok {
		t.Fatalf("entry 1 missing")
	}
	c.frame(e)
	c.releaseResult(e)
	if st := c.stats(); st.Bytes != 3104 || st.Results != 3 {
		t.Fatalf("after a hit: %+v, want 3 results in 3 104 bytes", st)
	}

	c.releaseResult(putResult(c, 4, 100)) // forces one eviction
	if _, ok := lease(c, 2); ok {
		t.Fatalf("LRU kept the oldest unleased entry")
	}
	for _, fp := range []Fingerprint{1, 3, 4} {
		e, ok := lease(c, fp)
		if !ok {
			t.Fatalf("entry %d evicted out of LRU order", fp)
		}
		c.releaseResult(e)
	}
}

// TestCacheGraphLease covers the graph side: leased graph entries
// survive cap pressure, deltas keyed on them stay resolvable,
// identical uploads dedup onto one entry, and a name stays bound to
// the content that took it.
func TestCacheGraphLease(t *testing.T) {
	c := newCache(3000)
	gc := &graphContent{n: 8, e1: make([]int, 100), e2: make([]int, 100)}
	ge := c.putGraph(gc.fingerprint(), gc) // leased

	dup := c.putGraph(gc.fingerprint(), &graphContent{n: 8, e1: make([]int, 100), e2: make([]int, 100)})
	if dup != ge {
		t.Fatalf("identical upload did not dedup onto the existing entry")
	}
	c.releaseGraph(dup)
	other := &graphContent{n: 8, e1: make([]int, 100), e2: make([]int, 100)}
	other.e2[7] = 1
	if got := c.putGraph(gc.fingerprint(), other); got != nil {
		t.Fatalf("a name bound to one content was handed out for another")
	}

	// Results under the leased graph: each is evictable on its own.
	for nparts := 100; nparts < 110; nparts++ {
		e := mkResult(ge.fp, 100)
		e.key.nparts = nparts
		c.releaseResult(c.putResult(ge, e))
	}
	if _, ok := c.leaseGraph(gc.fingerprint()); !ok {
		t.Fatalf("leased graph entry was evicted")
	}
	c.releaseGraph(ge)

	st := c.stats()
	if st.Graphs != 1 {
		t.Fatalf("Graphs = %d, want 1", st.Graphs)
	}
}

// TestCacheGraphOwnsItsResults pins single accounting: a result may be
// evicted alone, a graph entry is evicted together with the results
// computed for its content, and the byte count is exactly that of the
// entries still resident, hit frames included and the frames of evicted
// entries not.
func TestCacheGraphOwnsItsResults(t *testing.T) {
	c := newCache(4000)
	edges := func(m int) *graphContent { return &graphContent{n: 1, e1: make([]int, m), e2: make([]int, m)} }
	ge := c.putGraph(1, edges(200)) // 3 264 bytes
	var results []*resultEntry
	for nparts := 2; nparts < 5; nparts++ {
		e := mkResult(1, 10) // 208 bytes
		e.key.nparts = nparts
		e = c.putResult(ge, e)
		if nparts == 2 {
			c.frame(e) // and its 38-byte hit frame
		}
		c.releaseResult(e)
		results = append(results, e)
	}
	if st := c.stats(); st.Graphs != 1 || st.Results != 3 || st.Bytes != 3264+3*208+38 {
		t.Fatalf("after three results: %+v, want 1 graph, 3 results, %d bytes", st, 3264+3*208+38)
	}
	// 224 more bytes while the graph is leased: its oldest result goes,
	// and its frame with it.
	c.releaseGraph(c.putGraph(2, edges(10)))
	if st := c.stats(); st.Results != 2 || st.Bytes != 3264+2*208+224 {
		t.Fatalf("after one result's eviction: %+v, want 2 results, %d bytes", st, 3264+2*208+224)
	}
	c.releaseGraph(ge)

	// 864 more bytes: evicting the first graph alone would fit them, but
	// its results must go with it.
	c.releaseGraph(c.putGraph(3, edges(50)))
	st := c.stats()
	if st.Graphs != 2 || st.Results != 0 || st.Bytes != 224+864 || st.Evictions != 4 {
		t.Fatalf("after the graph's eviction: %+v, want 2 graphs, no results, %d bytes, 4 evictions", st, 224+864)
	}
	if _, ok := lease(c, 1); ok {
		t.Fatalf("a result outlived the graph it was computed for")
	}
	// A frame built for an entry already evicted is charged to nothing.
	if c.frame(results[2]) == nil || c.stats().Bytes != 224+864 {
		t.Fatalf("a frame built after its entry's eviction: %d bytes, want %d", c.stats().Bytes, 224+864)
	}
}

// TestCacheUnbounded pins the no-cap mode: capBytes <= 0 never
// evicts.
func TestCacheUnbounded(t *testing.T) {
	c := newCache(-1)
	for fp := Fingerprint(1); fp <= 50; fp++ {
		c.releaseResult(putResult(c, fp, 1000))
	}
	if st := c.stats(); st.Evictions != 0 || st.Results != 50 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

// TestCacheDerivationAccounting pins the derivation memo's bytes: each
// recorded delta is charged to its base entry, a repeated delta is not
// charged twice, the oldest record past maxDerivations is dropped and
// uncharged, and evicting the base releases what is left; a record
// whose entry is gone resolves to nothing.
func TestCacheDerivationAccounting(t *testing.T) {
	c := newCache(-1)
	base := c.putGraph(1, tiny())
	child := c.putGraph(2, &graphContent{n: 2})
	resident := c.stats().Bytes // 128: two 64-byte graph entries
	delta := func(i int) []EdgeRewire { return []EdgeRewire{{Edge: i, NewEnd: 0}, {Edge: i, NewEnd: 1}} }
	const per = 16*2 + 48

	c.derive(base, delta(0), child)
	c.derive(base, delta(0), child)
	if got := c.stats().Bytes; got != resident+per || base.size != 64+per {
		t.Fatalf("one delta recorded twice: %d bytes, base %d; want %d, %d", got, base.size, resident+per, 64+per)
	}
	if gc, fp := c.derivedFrom(base, delta(0)); gc != child.gc || fp != 2 {
		t.Fatalf("recorded delta resolved to %p %v, want the child's content and name", gc, fp)
	}
	for i := 1; i <= maxDerivations; i++ {
		c.derive(base, delta(i), child)
	}
	if got := c.stats().Bytes; got != resident+maxDerivations*per || len(base.derived) != maxDerivations {
		t.Fatalf("after %d deltas: %d bytes, %d records; want %d, %d", maxDerivations+1, got, len(base.derived), resident+maxDerivations*per, maxDerivations)
	}
	if gc, _ := c.derivedFrom(base, delta(0)); gc != nil {
		t.Fatal("the oldest record outlived the bound")
	}

	// Evicting the child leaves the records charged but unresolvable;
	// evicting the base releases them.
	c.releaseGraph(child)
	c.releaseGraph(base)
	c.mu.Lock()
	c.lru.MoveToBack(base.elem)
	c.capBytes = c.used - 1
	c.evict()
	c.mu.Unlock()
	if gc, _ := c.derivedFrom(base, delta(1)); gc != nil {
		t.Fatal("a record resolved to an evicted entry")
	}
	if got := c.stats().Bytes; got != 64+maxDerivations*per {
		t.Fatalf("after the child's eviction: %d bytes, want %d", got, 64+maxDerivations*per)
	}
	c.mu.Lock()
	c.capBytes = 1
	c.evict()
	c.mu.Unlock()
	if got := c.stats(); got.Bytes != 0 || got.Graphs != 0 {
		t.Fatalf("after the base's eviction: %+v, want an empty cache", got)
	}
	gone := c.putGraph(3, tiny())
	c.releaseGraph(gone)
	c.mu.Lock()
	c.evict()
	c.mu.Unlock()
	c.derive(gone, delta(9), base)
	if got := c.stats().Bytes; got != 0 || len(gone.derived) != 0 {
		t.Fatalf("a record on an evicted base was kept (%d) or charged (%d bytes)", len(gone.derived), got)
	}
}
