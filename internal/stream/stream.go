package stream

import "io"

// Slab is one bounded chunk of a graph stream: the CSR adjacency of
// vertices [Lo, Lo+NVerts()) in global vertex order. Neighbors of the
// i-th slab vertex are Adj[XAdj[i]:XAdj[i+1]], as global vertex ids,
// strictly increasing, self-loop free. A Slab owns its backing arrays;
// stream implementations fill them in place (grow-only) so a pass over
// an arbitrarily large stream reuses one slab's memory.
type Slab struct {
	// Lo is the global id of the slab's first vertex.
	Lo int
	// XAdj is the slab-local CSR index: len NVerts()+1, XAdj[0] == 0.
	XAdj []int
	// Adj holds the neighbor ids of all slab vertices.
	Adj []int
}

// NVerts returns the number of vertices the slab covers.
func (s *Slab) NVerts() int {
	if len(s.XAdj) == 0 {
		return 0
	}
	return len(s.XAdj) - 1
}

// reset prepares the slab for refilling at global vertex lo, keeping
// the backing arrays.
func (s *Slab) reset(lo int) {
	s.Lo = lo
	s.XAdj = append(s.XAdj[:0], 0)
	s.Adj = s.Adj[:0]
}

// GraphStream is a replayable, bounded-memory source of graph
// structure: CSR slabs in global vertex order, each covering the
// vertices immediately after the previous one. NumVertices and
// NumEdges are known up front (the stream header carries them);
// Next fills the caller's slab in place and reports io.EOF after the
// final slab; Reset rewinds to the first slab so the pass engine can
// restream. Implementations keep only O(slab) state resident — that
// bounded fringe is the point of the interface.
type GraphStream interface {
	// NumVertices returns the global vertex count.
	NumVertices() int
	// NumEdges returns the global undirected edge count.
	NumEdges() int
	// Next fills s with the next slab, reusing s's backing arrays.
	// It returns io.EOF (and leaves s empty) when the stream is
	// exhausted.
	Next(s *Slab) error
	// Reset rewinds the stream to its first slab.
	Reset() error
}

// Source is the minimal generator interface a workload implements to
// be streamed without materializing its edge list: per-vertex
// adjacency on demand, in any order the caller asks. FromSource wraps
// one into a GraphStream. internal/mesh.LatticeSource is the canonical
// implementation (cmd/meshgen -stream).
type Source interface {
	// NumVertices returns the global vertex count.
	NumVertices() int
	// NumEdges returns the global undirected edge count.
	NumEdges() int
	// AppendNeighbors appends the neighbor ids of vertex v to buf and
	// returns it: strictly increasing, self-loop free.
	AppendNeighbors(v int, buf []int) []int
}

// sourceStream adapts a Source to a GraphStream with a fixed slab
// granularity.
type sourceStream struct {
	src       Source
	slabVerts int
	cursor    int
}

// FromSource wraps a per-vertex Source into a GraphStream yielding
// slabs of slabVerts vertices (0 = DefaultSlabVerts). The stream is
// trivially replayable and holds no graph state of its own.
func FromSource(src Source, slabVerts int) GraphStream {
	if slabVerts <= 0 {
		slabVerts = DefaultSlabVerts
	}
	if slabVerts > MaxSlabVerts {
		slabVerts = MaxSlabVerts
	}
	return &sourceStream{src: src, slabVerts: slabVerts}
}

func (ss *sourceStream) NumVertices() int { return ss.src.NumVertices() }
func (ss *sourceStream) NumEdges() int    { return ss.src.NumEdges() }
func (ss *sourceStream) Reset() error     { ss.cursor = 0; return nil }

// Next fills s with the next slabVerts vertices' adjacency. The slab
// additionally respects MaxSlabAdj: a run of high-degree vertices
// closes the slab early rather than growing the fringe past the cap.
//
//chaos:hotpath
func (ss *sourceStream) Next(s *Slab) error {
	n := ss.src.NumVertices()
	if ss.cursor >= n {
		s.reset(n)
		return io.EOF
	}
	s.reset(ss.cursor)
	for ss.cursor < n && s.NVerts() < ss.slabVerts {
		s.Adj = ss.src.AppendNeighbors(ss.cursor, s.Adj)
		s.XAdj = append(s.XAdj, len(s.Adj))
		ss.cursor++
		if len(s.Adj) >= MaxSlabAdj {
			break
		}
	}
	return nil
}

// MemStream is the in-memory GraphStream adapter: a resident CSR
// (xadj/adj as geocol builds them) replayed in slabs. It exists for
// tests, benchmarks, and for feeding resident graphs through the same
// pass engine the out-of-core path uses; it does not itself save
// memory.
type MemStream struct {
	xadj, adj []int
	nedges    int
	slabVerts int
	cursor    int
}

// NewMemStream wraps a CSR into a replayable stream of slabVerts-vertex
// slabs (0 = DefaultSlabVerts). The CSR must be symmetric, sorted and
// self-loop free (geocol's invariant); it is referenced, not copied.
func NewMemStream(xadj, adj []int, slabVerts int) *MemStream {
	if len(xadj) == 0 {
		xadj = []int{0}
	}
	if slabVerts <= 0 {
		slabVerts = DefaultSlabVerts
	}
	return &MemStream{xadj: xadj, adj: adj, nedges: len(adj) / 2, slabVerts: slabVerts}
}

func (ms *MemStream) NumVertices() int { return len(ms.xadj) - 1 }
func (ms *MemStream) NumEdges() int    { return ms.nedges }
func (ms *MemStream) Reset() error     { ms.cursor = 0; return nil }

// Next fills s with the next slab of the resident CSR.
//
//chaos:hotpath
func (ms *MemStream) Next(s *Slab) error {
	n := ms.NumVertices()
	if ms.cursor >= n {
		s.reset(n)
		return io.EOF
	}
	lo := ms.cursor
	hi := lo + min(ms.slabVerts, n-lo)
	s.reset(lo)
	s.Adj = append(s.Adj, ms.adj[ms.xadj[lo]:ms.xadj[hi]]...)
	for v := lo + 1; v <= hi; v++ {
		s.XAdj = append(s.XAdj, ms.xadj[v]-ms.xadj[lo])
	}
	ms.cursor = hi
	return nil
}
