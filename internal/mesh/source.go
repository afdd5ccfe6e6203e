package mesh

import (
	"fmt"
	"math"

	"chaos/internal/xrand"
)

// latticeOffsets are the 12 undirected neighbor offsets of the
// tetrahedral lattice, each forward edge followed by its reverse. The
// even entries are GenerateLattice's six forward edges in the order it
// emits them: +x, +y, +z and the xy/yz/xz face diagonals.
var latticeOffsets = [12][3]int{
	{1, 0, 0}, {-1, 0, 0},
	{0, 1, 0}, {0, -1, 0},
	{0, 0, 1}, {0, 0, -1},
	{1, 1, 0}, {-1, -1, 0},
	{0, 1, 1}, {0, -1, -1},
	{1, 0, 1}, {-1, 0, -1},
}

// LatticeSource generates the exact connectivity of
// GenerateLattice(gx, gy, gz, seed) one vertex at a time, without ever
// materializing the edge list: it is the stream.Source (satisfied
// structurally; this package does not import internal/stream) behind
// cmd/meshgen -stream. Resident state is the two O(n) renumbering
// permutations — vertex-sized, never edge-sized — so a billion-edge
// mesh streams from a few hundred MB while its materialized form would
// need many GB.
type LatticeSource struct {
	gx, gy, gz int
	perm       []int // lattice id -> renumbered vertex id
	inv        []int // renumbered vertex id -> lattice id
	nedges     int
}

// NewLatticeSource prepares a streaming view of the gx × gy × gz
// lattice mesh. The connectivity matches GenerateLattice with the same
// arguments edge for edge (pinned by test).
func NewLatticeSource(gx, gy, gz int, seed uint64) *LatticeSource {
	if gx < 1 || gy < 1 || gz < 1 {
		panic(fmt.Sprintf("mesh: lattice %dx%dx%d", gx, gy, gz))
	}
	n := gx * gy * gz
	perm := xrand.New(seed).Perm(n)
	inv := make([]int, n)
	for lat, v := range perm {
		inv[v] = lat
	}
	edges := (gx-1)*gy*gz + gx*(gy-1)*gz + gx*gy*(gz-1) + // axis edges
		(gx-1)*(gy-1)*gz + gx*(gy-1)*(gz-1) + (gx-1)*gy*(gz-1) // face diagonals
	return &LatticeSource{gx: gx, gy: gy, gz: gz, perm: perm, inv: inv, nedges: edges}
}

// NumVertices returns the mesh point count.
func (ls *LatticeSource) NumVertices() int { return len(ls.perm) }

// NumEdges returns the undirected edge count.
func (ls *LatticeSource) NumEdges() int { return ls.nedges }

// AppendNeighbors appends vertex v's neighbor ids to buf in strictly
// increasing order and returns it. Allocation-free once buf has
// capacity (a lattice vertex has at most 12 neighbors).
func (ls *LatticeSource) AppendNeighbors(v int, buf []int) []int {
	lat := ls.inv[v]
	x := lat % ls.gx
	y := (lat / ls.gx) % ls.gy
	z := lat / (ls.gx * ls.gy)
	n0 := len(buf)
	for _, d := range &latticeOffsets {
		nx, ny, nz := x+d[0], y+d[1], z+d[2]
		if nx < 0 || nx >= ls.gx || ny < 0 || ny >= ls.gy || nz < 0 || nz >= ls.gz {
			continue
		}
		u := ls.perm[(nz*ls.gy+ny)*ls.gx+nx]
		// Insertion sort into buf[n0:]: the renumbering scrambles ids,
		// and at most 12 entries makes this cheaper than sort.
		j := len(buf)
		buf = append(buf, u)
		for j > n0 && buf[j-1] > buf[j] {
			buf[j-1], buf[j] = buf[j], buf[j-1]
			j--
		}
	}
	return buf
}

// SideFor returns the lattice side length Generate uses for a target
// vertex count: the rounded cube root, at least 2.
func SideFor(nTarget int) int {
	if nTarget < 8 {
		panic(fmt.Sprintf("mesh: target %d too small", nTarget))
	}
	side := int(math.Round(math.Cbrt(float64(nTarget))))
	if side < 2 {
		side = 2
	}
	return side
}
