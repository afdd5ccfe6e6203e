package core

import (
	"chaos/internal/dist"
	"chaos/internal/geocol"
	"chaos/internal/partition"
)

// GeoColInput declares the program arrays feeding a CONSTRUCT
// directive. Connectivity (LINK) comes from a pair of indirection
// arrays; geometry (GEOMETRY) from coordinate arrays aligned with the
// vertex space; load (LOAD) from a weight array. Any combination is
// allowed, mirroring the paper's Section 4.1.2.
type GeoColInput struct {
	// Link supplies edge endpoint arrays (both must be aligned).
	Link1, Link2 *IntArray
	// Geometry supplies coordinate arrays, one per spatial dimension.
	Geometry []*Array
	// Load supplies per-vertex computational weight.
	Load *Array
}

// dads lists the DADs of every contributing array, in a fixed order,
// for the reuse guard.
func (in GeoColInput) dads() []dist.DAD {
	var ds []dist.DAD
	if in.Link1 != nil {
		ds = append(ds, in.Link1.DAD())
	}
	if in.Link2 != nil {
		ds = append(ds, in.Link2.DAD())
	}
	for _, g := range in.Geometry {
		ds = append(ds, g.DAD())
	}
	if in.Load != nil {
		ds = append(ds, in.Load.DAD())
	}
	return ds
}

// Construct builds the GeoCoL data structure for an n-vertex index
// space from program arrays (the CONSTRUCT directive, Phase A). The
// graph-generation cost is attributed to TimerGraphGen. Collective.
func (s *Session) Construct(n int, in GeoColInput) *geocol.Graph {
	var g *geocol.Graph
	s.timed(TimerGraphGen, func() {
		var opts []geocol.Option
		if in.Link1 != nil || in.Link2 != nil {
			if in.Link1 == nil || in.Link2 == nil {
				panic("core: CONSTRUCT LINK requires both endpoint arrays")
			}
			opts = append(opts, geocol.WithLink(in.Link1.Data, in.Link2.Data))
		}
		if len(in.Geometry) > 0 {
			cols := make([][]float64, len(in.Geometry))
			for d, arr := range in.Geometry {
				cols[d] = arr.Data
			}
			opts = append(opts, geocol.WithGeometry(cols...))
		}
		if in.Load != nil {
			opts = append(opts, geocol.WithLoad(in.Load.Data))
		}
		g = geocol.Build(s.C, n, opts...)
	})
	return g
}

// SetPartitioning runs the partitioner selected by a typed spec on a
// GeoCoL graph and returns the resulting irregular distribution (the
// SET distfmt BY PARTITIONING G USING <spec> directive). The spec is
// resolved against the registry and validated against the
// partitioner's declared capabilities and the components g actually
// carries before any partitioning work starts, so a bad combination —
// RCB without GEOMETRY, tuning knobs on an untunable method — fails
// with a descriptive error here rather than a panic deep in the
// library. The partitioner cost is attributed to TimerPartition.
// Collective.
func (s *Session) SetPartitioning(g *geocol.Graph, spec partition.Spec, nparts int) (*Mapping, error) {
	p, err := spec.ValidateFor(g, nparts)
	if err != nil {
		return nil, err
	}
	var m *Mapping
	s.timed(TimerPartition, func() {
		part := p.Partition(s.C, g, nparts)
		m = &Mapping{n: g.N, home: g.Home, part: part}
	})
	return m, nil
}
