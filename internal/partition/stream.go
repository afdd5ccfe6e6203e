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
// serial methods (see gatheredSolve): the machine being
// modelled gathers the GeoCoL graph and runs the identical
// deterministic pipeline on every rank, so the result is bit-for-bit
// independent of the rank count. Resident state of the pipeline
// itself is one slab plus the O(nparts) placer and the
// vertex-proportional bootstrap model — the out-of-core contract;
// stream.Partition is the machine-free entry point that honors it
// against file streams the machine path never needs.
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
	// The host gathers onto rank 0 alone, runs the pipeline there once
	// and hands the vector to the others through the uncharged
	// ShareInts (serialKway's convention), whose clock synchronization
	// is a no-op here: the gather just before it left every clock
	// equal. Fine-level edges are treated as unit weight (the
	// edge-stream model carries none).
	f := g.GatherTo(c, 0)
	var part []int
	if c.Rank() == 0 {
		var err error
		part, err = stream.PartitionWeighted(stream.NewMemStream(f.XAdj, f.Adj, stream.DefaultSlabVerts),
			nparts, f.Weights, stream.Options{
				Slack:     sp.Slack,
				Restreams: sp.Restreams,
				Seed:      sp.Seed,
			})
		if err != nil {
			panic("partition: STREAM on gathered graph: " + err.Error())
		}
	}
	part = c.ShareInts(0, part)

	// Modeled cost, replicated on every clock: a k-way scan per vertex
	// plus a touch per directed edge, once per pass (the bootstrap's
	// two model passes included).
	passes := 3 + sp.Restreams
	c.Flops(passes * (g.N*nparts + 2*g.NEdges))

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
				w += g.EdgeWeight(k)
			}
		}
	}
	return c.SumFloat(w) / 2
}

// EdgeListCut counts the edges of the list (e1[i], e2[i]) whose ends
// lie in different parts of the global part vector: an edge listed
// twice counts twice, a self-loop never. Serial.
func EdgeListCut(e1, e2, part []int) int {
	cut := 0
	for i := range e1 {
		if e1[i] != e2[i] && part[e1[i]] != part[e2[i]] {
			cut++
		}
	}
	return cut
}
