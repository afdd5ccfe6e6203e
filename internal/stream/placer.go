package stream

import (
	"fmt"
	"math"

	"chaos/internal/xrand"
)

// Options tunes a streaming partition pass. The zero value is the
// default configuration: 5% balance slack, a single pass, seed 0.
type Options struct {
	// Slack is the part-capacity slack fraction: no part may exceed
	// (1+Slack) x the ideal load (0 = default 0.05; must stay below
	// 0.5).
	Slack float64
	// Restreams is the number of additional buffered restreaming
	// passes: each replays the stream and re-places every vertex with
	// full knowledge of its neighbors' current assignments, recovering
	// cut quality a single blind pass loses. 0 = one pass only.
	Restreams int
	// Seed salts the deterministic tie-breaking rotation; the same
	// (stream, Options) pair always yields the same partition.
	Seed uint64
}

// slack resolves the Slack default.
func (o Options) slack() float64 {
	if o.Slack == 0 {
		return 0.05
	}
	return o.Slack
}

// Placer is the bounded-memory core of the streaming pass: the
// per-part load table plus scoring scratch, placing one vertex at a
// time against a caller-owned part vector (part[u] < 0 = unassigned)
// by linear deterministic greedy (Stanton & Kliot): a vertex goes to
// the part holding most of its already-placed neighbors, discounted
// multiplicatively by that part's fill fraction —
// score(q) = conn(q) * (1 - load(q)/capacity).
// Its resident state is O(nparts) — independent of the graph — which
// is what lets the same core serve both the out-of-core file path and
// internal/partition's SPMD adapter.
type Placer struct {
	nparts  int
	seed    uint64
	cap     float64
	loads   []float64
	conn    []float64 // edge multiplicity toward each part (scoring scratch)
	touched []int     // parts with nonzero conn, for O(deg) reset
}

// NewPlacer sizes a placer for a graph with total vertex weight totalW
// (= the vertex count when unweighted), to be split into nparts parts
// under opt.
func NewPlacer(nparts int, totalW float64, opt Options) *Placer {
	if nparts < 1 {
		panic(fmt.Sprintf("stream: nparts = %d", nparts))
	}
	pl := &Placer{
		nparts:  nparts,
		seed:    opt.Seed,
		loads:   make([]float64, nparts),
		conn:    make([]float64, nparts),
		touched: make([]int, 0, nparts),
	}
	pl.cap = totalW / float64(nparts) * (1 + opt.slack())
	if pl.cap <= 0 {
		pl.cap = 1
	}
	return pl
}

// Add records weight w arriving in part q.
func (pl *Placer) Add(q int, w float64) { pl.loads[q] += w }

// Remove records weight w leaving part q (restreaming removes a vertex
// before re-placing it).
func (pl *Placer) Remove(q int, w float64) { pl.loads[q] -= w }

// Place scores every part for vertex v given its neighbor ids, their
// edge weights ew (aligned with adj; nil = unit, as on the fine
// stream, while the coarse model's contracted edges carry
// multiplicity) and the current assignment vector, and returns the
// chosen part. It does not record the choice — the caller assigns
// part[v] and calls Add, which keeps the weighted and unweighted
// drivers symmetric. Deterministic: ties break toward the lighter
// part, then toward the first part in a seed-and-vertex-keyed rotation
// of the scan order (which is what spreads the early, signal-free
// placements). This is the per-edge hot loop of the streaming family;
// it allocates nothing at steady state.
//
//chaos:hotpath
func (pl *Placer) Place(v int, adj []int, ew []float64, part []int) int {
	conn := pl.conn
	touched := pl.touched[:0]
	for i, u := range adj {
		q := part[u]
		if q < 0 {
			continue
		}
		if conn[q] == 0 {
			touched = append(touched, q)
		}
		if ew != nil {
			conn[q] += ew[i]
		} else {
			conn[q]++
		}
	}

	k := pl.nparts
	r0 := int(xrand.Hash64(uint64(v)^pl.seed) % uint64(k))
	best, bestScore := -1, math.Inf(-1)
	for i := 0; i < k; i++ {
		q := r0 + i
		if q >= k {
			q -= k
		}
		load := pl.loads[q]
		if load >= pl.cap {
			continue // hard capacity: the balance contract
		}
		score := conn[q] * (1 - load/pl.cap)
		if score > bestScore || (score == bestScore && best >= 0 && load < pl.loads[best]) {
			best, bestScore = q, score
		}
	}
	if best < 0 {
		// Every part is at capacity — possible only on weighted
		// streams where one arrival overshoots the slack. Least loaded
		// wins, rotation breaking exact ties.
		for i := 0; i < k; i++ {
			q := r0 + i
			if q >= k {
				q -= k
			}
			if best < 0 || pl.loads[q] < pl.loads[best] {
				best = q
			}
		}
	}

	for _, q := range touched {
		conn[q] = 0
	}
	pl.touched = touched
	return best
}

// Partition streams gs into nparts parts. On graphs large enough to
// profit (n >= bootstrapMin, nparts >= 2) it first runs the buffered
// bootstrap — streaming clustering, an in-memory solve of the bounded
// coarse model, projection — and then polishes with 1+opt.Restreams
// re-placement passes; otherwise a single blind greedy pass in arrival
// order plus opt.Restreams restreams. The returned vector assigns
// every vertex; resident memory beyond it is one slab, the O(nparts)
// placer, and the vertex-proportional (never edge-proportional)
// bootstrap model. Deterministic for a fixed (stream, nparts, opt).
func Partition(gs GraphStream, nparts int, opt Options) ([]int, error) {
	return PartitionWeighted(gs, nparts, nil, opt)
}

// PartitionWeighted is Partition with per-vertex weights (nil = unit).
// The weight vector is O(n) caller-resident state, in line with the
// semi-streaming model; the edge set still never materializes.
func PartitionWeighted(gs GraphStream, nparts int, w []float64, opt Options) ([]int, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("stream: nparts = %d, want >= 1", nparts)
	}
	n := gs.NumVertices()
	if w != nil && len(w) < n {
		return nil, fmt.Errorf("stream: weight vector covers %d of %d vertices", len(w), n)
	}
	totalW := float64(n)
	if w != nil {
		totalW = 0
		for v := 0; v < n; v++ {
			totalW += w[v]
		}
	}
	pl := NewPlacer(nparts, totalW, opt)

	var slab Slab // one fringe for every pass
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	seeded := n >= bootstrapMin && nparts >= 2
	if seeded {
		if err := bootstrap(gs, &slab, part, nparts, w, totalW, opt); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			pl.Add(part[v], vertexW(w, v))
		}
	}

	passes := 1 + opt.Restreams
	for pass := 0; pass < passes; pass++ {
		if err := runPass(gs, &slab, pl, part, w, seeded || pass > 0); err != nil {
			return nil, err
		}
	}
	return part, nil
}

// vertexW resolves a vertex weight against an optional weight vector.
func vertexW(w []float64, v int) float64 {
	if w == nil {
		return 1
	}
	return w[v]
}

// runPass replays gs once, placing (or, when restream is set,
// removing and re-placing) every vertex in arrival order. The slab and
// placer are caller-owned so repeated passes reuse their buffers.
func runPass(gs GraphStream, s *Slab, pl *Placer, part []int, w []float64, restream bool) error {
	return eachSlab(gs, s, func(s *Slab) {
		for i := 0; i < s.NVerts(); i++ {
			v := s.Lo + i
			wt := vertexW(w, v)
			if restream {
				pl.Remove(part[v], wt)
				part[v] = -1
			}
			q := pl.Place(v, s.Adj[s.XAdj[i]:s.XAdj[i+1]], nil, part)
			part[v] = q
			pl.Add(q, wt)
		}
	})
}
