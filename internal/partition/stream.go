package partition

import (
	"chaos/internal/geocol"
	"chaos/internal/machine"
	"chaos/internal/stream"
)

// Streaming is the registry adapter of internal/stream's out-of-core
// partitioner family (method "STREAM"): the buffered bootstrap
// (streaming clustering plus an in-memory coarse solve) followed by
// linear deterministic greedy (LDG) re-placement passes. Under
// the SPMD machine it follows the replicated-cost convention of the
// serial methods (see serialBisectPartition): the GeoCoL graph is
// gathered and every rank runs the identical deterministic pipeline,
// so the result is bit-for-bit independent of the rank count and
// backend. Resident state of the pipeline itself is one slab plus the
// O(nparts) placer and the vertex-proportional bootstrap model — the
// out-of-core contract; stream.Partition is the machine-free entry
// point that honors it against file streams the machine path never
// needs.
type Streaming struct {
	// Restreams is the number of additional re-placement passes.
	Restreams int
	// Slack is the part-capacity slack fraction (0 = default 0.05).
	Slack float64
	// Seed salts deterministic tie-breaking.
	Seed uint64
}

func (Streaming) Name() string { return "STREAM" }

// Capabilities: STREAM consumes LINK connectivity.
func (Streaming) Capabilities() Capabilities { return Capabilities{NeedsLink: true} }

func (sp Streaming) Partition(c *machine.Ctx, g *geocol.Graph, nparts int) []int {
	checkArgs(nparts)
	if !g.HasLink {
		panic("partition: STREAM requires a GeoCoL LINK component")
	}
	f := g.Gather(c)
	var w []float64
	if f.HasLoad {
		w = f.Weights
	}
	// Every rank runs the identical deterministic pipeline on the
	// gathered graph; fine-level edges are treated as unit weight (the
	// edge-stream model carries none).
	part, err := stream.PartitionWeighted(stream.NewMemStream(f.XAdj, f.Adj, stream.DefaultSlabVerts),
		nparts, w, stream.Options{
			Slack:     sp.Slack,
			Restreams: sp.Restreams,
			Seed:      sp.Seed,
		})
	if err != nil {
		panic("partition: STREAM on gathered graph: " + err.Error())
	}

	// Modeled cost, replicated on every clock: a k-way scan per vertex
	// plus a touch per directed edge, once per pass (the bootstrap's
	// two model passes included).
	passes := 3 + sp.Restreams
	c.Flops(passes * (g.N*nparts + 2*f.NEdges))

	lo := g.Home.Lo(c.Rank())
	out := make([]int, g.LocalN(c.Rank()))
	copy(out, part[lo:lo+len(out)])
	return out
}

// Cut returns the exact weighted edge cut of a distributed partition
// (home-local, as the partitioners return it). It builds a throwaway
// ghost exchange; callers refining repeatedly should keep their own.
// Collective.
func Cut(c *machine.Ctx, g *geocol.Graph, part []int) float64 {
	ge := geocol.NewGhostExchange(c, g)
	gp := ge.PushInts(c, part)
	w := 0.0
	for l := 0; l < g.LocalN(c.Rank()); l++ {
		for k := g.XAdj[l]; k < g.XAdj[l+1]; k++ {
			var q int
			if loc := ge.Loc[k]; loc >= 0 {
				q = part[loc]
			} else {
				q = gp[-loc-1]
			}
			if q != part[l] {
				if g.EdgeW != nil {
					w += g.EdgeW[k]
				} else {
					w++
				}
			}
		}
	}
	return c.SumFloat(w) / 2
}
