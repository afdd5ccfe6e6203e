// Package mesh generates the synthetic 3-D unstructured meshes used in
// place of the paper's Euler-solver meshes (Mavriplis, 10K and 53K mesh
// points; the unstructured-mesh workload of the paper's Section 6
// evaluation, Tables 1-4). A jittered hexahedral lattice is split with tetrahedral-style
// diagonal connectivity, then the vertices are randomly renumbered.
// The renumbering reproduces the property the paper's experiments turn
// on: "the way in which the nodes of an irregular computational mesh
// are numbered frequently does not have a useful correspondence to the
// connectivity pattern of the mesh", so a BLOCK distribution of the
// renumbered arrays communicates heavily while geometric or spectral
// partitions localize the edges.
package mesh

import (
	"cmp"
	"math"
	"slices"

	"chaos/internal/kernel"
	"chaos/internal/xrand"
)

// Mesh is a synthetic unstructured mesh: an edge list over randomly
// numbered vertices plus vertex coordinates.
type Mesh struct {
	// NNode is the number of mesh points.
	NNode int
	// E1, E2 are the edge endpoint lists: edge i links vertices
	// E1[i] and E2[i] (the paper's end_pt1 / end_pt2 arrays).
	E1, E2 []int
	// X, Y, Z are vertex coordinates indexed by vertex id.
	X, Y, Z []float64
}

// NEdge returns the number of edges.
func (m *Mesh) NEdge() int { return len(m.E1) }

// AvgDegree returns the average vertex degree.
func (m *Mesh) AvgDegree() float64 {
	if m.NNode == 0 {
		return 0
	}
	return 2 * float64(m.NEdge()) / float64(m.NNode)
}

// Generate builds a mesh with roughly nTarget vertices (the cube
// lattice is rounded to whole dimensions, so the exact count may differ
// slightly). The same (nTarget, seed) pair always produces the same
// mesh.
func Generate(nTarget int, seed uint64) *Mesh {
	side := SideFor(nTarget)
	return GenerateLattice(side, side, side, seed)
}

// GenerateLattice builds a gx × gy × gz lattice mesh with tetrahedral
// diagonals, jittered coordinates, and random vertex renumbering. The
// point set is bent onto a half-annular shell (the hallmark geometry of
// the aerodynamic meshes the paper used): coordinate-aligned planar
// cuts through the curved domain are workable but suboptimal, while
// connectivity-based (spectral) partitioning finds the intrinsic
// structure — which is exactly the RCB-vs-RSB trade-off the paper's
// Table 2 exhibits.
func GenerateLattice(gx, gy, gz int, seed uint64) *Mesh {
	n := gx * gy * gz
	rng := xrand.New(seed)
	perm := rng.Perm(n) // perm[lattice id] = renumbered vertex id

	m := &Mesh{NNode: n}
	m.X = make([]float64, n)
	m.Y = make([]float64, n)
	m.Z = make([]float64, n)
	id := func(x, y, z int) int { return perm[(z*gy+y)*gx+x] }

	r0 := float64(gx) / math.Pi // inner radius: unit arc spacing there
	for z := 0; z < gz; z++ {
		for y := 0; y < gy; y++ {
			for x := 0; x < gx; x++ {
				v := id(x, y, z)
				j := xrand.Hash64(uint64(v) ^ seed)
				lx := float64(x) + 0.25*(float64(j%1024)/1024-0.5)
				ly := float64(y) + 0.25*(float64((j>>10)%1024)/1024-0.5)
				lz := float64(z) + 0.25*(float64((j>>20)%1024)/1024-0.5)
				theta := math.Pi * lx / float64(gx)
				r := r0 + ly
				m.X[v] = r * math.Cos(theta)
				m.Y[v] = r * math.Sin(theta)
				m.Z[v] = lz
			}
		}
	}
	for z := 0; z < gz; z++ {
		for y := 0; y < gy; y++ {
			for x := 0; x < gx; x++ {
				v := id(x, y, z)
				// The even entries of latticeOffsets are the six forward
				// edges, tetrahedral face diagonals included.
				for i := 0; i < len(latticeOffsets); i += 2 {
					d := &latticeOffsets[i]
					if nx, ny, nz := x+d[0], y+d[1], z+d[2]; nx < gx && ny < gy && nz < gz {
						m.E1 = append(m.E1, v)
						m.E2 = append(m.E2, id(nx, ny, nz))
					}
				}
			}
		}
	}
	return m
}

// Slabs cuts the half-annular shell the generators bend their lattice
// onto into p angular slabs of equal vertex count and returns each
// vertex's slab. It is the cheap geometric partition of test and
// benchmark fixtures: balanced, with neighbours only across slab faces,
// like the RCB partitions the Euler workloads run on.
//
//chaosvet:ignore testonly the fixture partition of schedule's BenchmarkHotBuildGather and BenchmarkHotGatherScatter and ttable's BenchmarkHotResolve
func (m *Mesh) Slabs(p int) []int {
	byAngle := make([]int, m.NNode)
	for v := range byAngle {
		byAngle[v] = v
	}
	slices.SortFunc(byAngle, func(a, b int) int {
		return cmp.Or(
			cmp.Compare(math.Atan2(m.Y[a], m.X[a]), math.Atan2(m.Y[b], m.X[b])),
			cmp.Compare(a, b))
	})
	owner := make([]int, m.NNode)
	for i, v := range byAngle {
		owner[v] = i * p / m.NNode
	}
	return owner
}

// EulerFlux is the kernel of the unstructured Euler sweep template: a
// nonlinear two-point flux with distinct contributions to the two
// endpoint residuals (the f and g of the paper's loop L2). Called
// directly, EulerFlux(e, in, out) computes one edge from in[0], in[1]
// into out[0], out[1]; its Strip method is the executor's kernel
// (core.Kernel), which gathers, computes and combines all of a step's
// local edges with the same arithmetic in one loop.
var EulerFlux eulerFlux = func(_ int, in, out []float64) {
	out[0], out[1] = flux(in[0], in[1])
}

// eulerFlux is the type of EulerFlux: a per-edge function that is also
// a kernel.
type eulerFlux func(e int, in, out []float64)

// Strip runs every local edge of a step: edge b gathers its endpoint values
// through s.Reads[0] and s.Reads[1] and combines f and g through
// s.Writes[0] and s.Writes[1]. Under REDUCE(ADD) on both writes the
// loop is fused by hand, every slice hoisted into a local.
//
//chaos:hotpath
func (eulerFlux) Strip(s *kernel.Strip) {
	r1, r2, w1, w2 := &s.Reads[0], &s.Reads[1], &s.Writes[0], &s.Writes[1]
	if !w1.Add || !w2.Add {
		for b := range s.Iters {
			f, g := flux(r1.At(b), r2.At(b))
			w1.Combine(b, f)
			w2.Combine(b, g)
		}
		return
	}
	loc1, gh1, ref1 := r1.Local, r1.Ghost, r1.Ref[:len(s.Iters)]
	loc2, gh2, ref2 := r2.Local, r2.Ghost, r2.Ref[:len(ref1)]
	buf1, wref1 := w1.Buf, w1.Ref[:len(ref1)]
	buf2, wref2 := w2.Buf, w2.Ref[:len(ref1)]
	for b, r := range ref1 {
		var x1, x2 float64
		if r < len(loc1) {
			x1 = loc1[r]
		} else {
			x1 = gh1[r-len(loc1)]
		}
		if r := ref2[b]; r < len(loc2) {
			x2 = loc2[r]
		} else {
			x2 = gh2[r-len(loc2)]
		}
		f, g := flux(x1, x2)
		buf1[wref1[b]] += f
		buf2[wref2[b]] += g
	}
}

// flux is the two-point flux of one edge with endpoint values x1, x2.
func flux(x1, x2 float64) (f, g float64) {
	avg := 0.5 * (x1 + x2)
	diff := x2 - x1
	f = avg*avg + 0.5*diff // reduced into y(end_pt1)
	g = avg*avg - 0.5*diff // reduced into y(end_pt2)
	return f, g
}

// EulerFlops is the modeled floating-point cost of one edge of
// EulerFlux.
const EulerFlops = 8

// InitialState gives vertex v's initial solution value (smooth field
// over the jittered geometry so flux values are well conditioned).
func (m *Mesh) InitialState(v int) float64 {
	return 1 + 0.1*math.Sin(0.37*m.X[v])*math.Cos(0.29*m.Y[v]) + 0.05*math.Sin(0.41*m.Z[v])
}
