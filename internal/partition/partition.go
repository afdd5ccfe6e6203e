package partition

import (
	"fmt"
	"sort"
	"sync"

	"chaos/internal/csr"
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/machine"
)

// Partitioner maps GeoCoL vertices to parts. Partition returns the
// part of each home-resident vertex of g, aligned with g's home
// distribution. Capabilities declares which GeoCoL components it
// consumes, so a Spec is validated against the graph at the call site
// (Spec.ValidateFor). Implementations must be deterministic and
// collective.
type Partitioner interface {
	Name() string
	Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int
	Capabilities() Capabilities
}

// Capabilities declares which GeoCoL components a partitioner
// consumes, so a Spec can be validated against the graph at the call
// site instead of panicking deep inside the library.
type Capabilities struct {
	// NeedsGeometry: consumes the GEOMETRY component (coordinates).
	NeedsGeometry bool
	// NeedsLink: consumes the LINK component (connectivity).
	NeedsLink bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]Partitioner{}
)

// Register adds a partitioner under its Name; it replaces any previous
// entry, which is how a user links a customized partitioner. Safe for
// concurrent use with Lookup and Names.
func Register(p Partitioner) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[p.Name()] = p
}

// Lookup finds a partitioner by name (case-sensitive, conventionally
// upper-case, e.g. "RSB", "RCB", "BLOCK").
func Lookup(name string) (Partitioner, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("partition: unknown partitioner %q (have %v)", name, namesLocked())
	}
	return p, nil
}

// Names returns the registered partitioner names, sorted. Safe for
// concurrent use with Register.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

// namesLocked gathers the sorted name list; callers hold regMu.
func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(BlockPartitioner{})
	Register(RCB{})
	Register(RSB{})
	Register(KL{})
	Register(Multilevel{})
	Register(Streaming{})
}

// bisectFunc splits the vertex subset verts of g (ids of g) so that a
// frac share of its vertex weight lands in left, and returns the flop
// count of the split. RSB, KL and MULTILEVEL's V-cycle each supply one.
type bisectFunc func(g *csr.Graph, verts []int, frac float64) (left, right []int, flops int64)

// serialBisectPartition is the shared driver of the serial recursive-
// bisection partitioners (RSB, KL): gatheredSolve around
// recursiveBisect.
func serialBisectPartition(c *machine.Ctx, g *geocol.Graph, nparts int, bisect bisectFunc) []int {
	return gatheredSolve(c, g, func(f *csr.Graph) ([]int, int64) {
		return recursiveBisect(f, nparts, bisect)
	})
}

// gatheredSolve runs a serial solve under the replicated-cost
// convention explained on RSB: the GeoCoL graph is gathered onto rank 0
// (every rank is charged the all-ranks gather, as graph-generation
// cost), rank 0 solves it and broadcasts the map together with the
// flop count of the solve, and every rank's clock is charged the full
// cost. Returns this rank's home-resident slice. Collective.
func gatheredSolve(c *machine.Ctx, g *geocol.Graph, solve func(f *csr.Graph) (part []int, flops int64)) []int {
	f := g.GatherTo(c, 0)

	var part []int
	if c.Rank() == 0 {
		var flops int64
		part, flops = solve(f)
		part = append(part, int(flops))
	}
	part = c.BroadcastInts(0, part)
	c.Flops(part[len(part)-1])
	part = part[:len(part)-1]

	// Return this rank's home-resident slice.
	lo := g.Home.Lo(c.Rank())
	out := make([]int, g.LocalN(c.Rank()))
	for l := range out {
		out[l] = part[lo+l]
	}
	return out
}

// recursiveBisect divides g's vertices into nparts parts by bisecting
// recursively with bisect, and returns the part of every vertex and
// the summed flop count of the bisections.
func recursiveBisect(g *csr.Graph, nparts int, bisect bisectFunc) (part []int, flops int64) {
	n := g.Len()
	part = make([]int, n)
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	stack := []splitTask{{verts: verts, partLo: 0, nparts: nparts}}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.nparts == 1 {
			for _, v := range t.verts {
				part[v] = t.partLo
			}
			continue
		}
		nl := halves(t.nparts)
		left, right, fl := bisect(g, t.verts, float64(nl)/float64(t.nparts))
		flops += fl
		stack = append(stack,
			splitTask{verts: right, partLo: t.partLo + nl, nparts: t.nparts - nl},
			splitTask{verts: left, partLo: t.partLo, nparts: nl},
		)
	}
	return part, flops
}

// checkArgs validates common preconditions.
func checkArgs(nparts int) {
	if nparts < 1 {
		panic(fmt.Sprintf("partition: nparts = %d", nparts))
	}
}

// BlockPartitioner assigns contiguous index ranges to parts — the
// naive HPF BLOCK mapping used as the paper's baseline (Table 4).
type BlockPartitioner struct{}

func (BlockPartitioner) Name() string { return "BLOCK" }

// Capabilities: BLOCK consumes nothing.
func (BlockPartitioner) Capabilities() Capabilities { return Capabilities{} }

func (BlockPartitioner) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	b := dist.NewBlock(g.N, nparts)
	localN := g.LocalN(c.Rank())
	lo := g.Home.Lo(c.Rank())
	part := make([]int, localN)
	for l := range part {
		part[l] = b.Owner(lo + l)
	}
	c.Words(localN)
	return part
}

// splitTask describes one node of the recursive bisection tree: the
// set of local vertices (home-local indices) still to be divided among
// parts [partLo, partLo+nparts).
type splitTask struct {
	verts  []int
	partLo int
	nparts int
}

// weightedKeySplit divides verts into (left, right) so that the total
// vertex weight of left approximates frac of the group weight, using a
// distributed binary search on the key values. Ties are broken
// deterministically by perturbing each key with a vertex-unique epsilon
// too small to disturb geometry. Collective.
func weightedKeySplit(c *machine.Ctx, g *geocol.Graph, verts []int, key []float64, frac float64) (left, right []int) {
	lo := g.Home.Lo(c.Rank())
	// Perturb keys for deterministic tie-breaking.
	kmin, kmax := 1e308, -1e308
	for _, v := range verts {
		if key[v] < kmin {
			kmin = key[v]
		}
		if key[v] > kmax {
			kmax = key[v]
		}
	}
	kmin = c.MinFloat(kmin)
	kmax = c.MaxFloat(kmax)
	span := kmax - kmin
	if span <= 0 {
		span = 1
	}
	eps := span * 1e-12 / float64(g.N+1)
	// pkey[k] is verts[k]'s perturbed key.
	pkey := make([]float64, len(verts))
	wsum := 0.0
	for k, v := range verts {
		pkey[k] = key[v] + eps*float64(lo+v)
		wsum += g.Weight(v)
	}
	totalW := c.SumFloat(wsum)
	target := totalW * frac

	a, b := kmin-2*eps*float64(g.N+1), kmax+2*eps*float64(g.N+1)
	for it := 0; it < 64; it++ {
		mid := (a + b) / 2
		wl := 0.0
		for k, v := range verts {
			if pkey[k] <= mid {
				wl += g.Weight(v)
			}
		}
		wl = c.SumFloat(wl)
		if wl < target {
			a = mid
		} else {
			b = mid
		}
	}
	cut := b
	for k, v := range verts {
		if pkey[k] <= cut {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	c.Words(3 * len(verts))
	return left, right
}

// halves returns the left part count for splitting nparts.
func halves(nparts int) int { return nparts / 2 }
