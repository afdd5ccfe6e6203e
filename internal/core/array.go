package core

import (
	"fmt"
	"slices"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/remap"
	"chaos/internal/ttable"
)

// DistArray is a distributed array of REAL*8 (Array) or INTEGER
// (IntArray) elements. Data holds the local section; local index i
// corresponds to global index MyGlobals()[i]. The array carries a DAD
// that the schedule-reuse registry keys on; remapping mints a fresh
// DAD.
type DistArray[T float64 | int] struct {
	Name string
	s    *Session
	n    int
	dad  dist.DAD
	res  ttable.Resolver
	gl   []int
	Data []T
}

// Array is a distributed REAL*8 array.
type Array = DistArray[float64]

// IntArray is a distributed INTEGER array, used for indirection arrays
// and map arrays.
type IntArray = DistArray[int]

// NewArray declares a REAL*8 array of n elements with the default BLOCK
// distribution (the paper's "initially, the distributed arrays are
// decomposed in a known regular manner").
func (s *Session) NewArray(name string, n int) *Array { return newDistArray[float64](s, name, n) }

// NewIntArray declares an INTEGER array of n elements with the default
// BLOCK distribution.
func (s *Session) NewIntArray(name string, n int) *IntArray { return newDistArray[int](s, name, n) }

func newDistArray[T float64 | int](s *Session, name string, n int) *DistArray[T] {
	b := dist.NewBlock(n, s.C.Procs())
	a := &DistArray[T]{
		Name: name,
		s:    s,
		n:    n,
		dad:  s.DADs.New(dist.Block, n),
		res:  ttable.Regular{D: b},
		gl:   blockGlobals(b, s.C.Rank()),
	}
	a.Data = make([]T, len(a.gl))
	return a
}

func blockGlobals(b dist.BlockDist, rank int) []int {
	lo, hi := b.Lo(rank), b.Hi(rank)
	gl := make([]int, hi-lo)
	for i := range gl {
		gl[i] = lo + i
	}
	return gl
}

// DAD returns the array's current data access descriptor.
func (a *DistArray[T]) DAD() dist.DAD { return a.dad }

// Resolver returns the array's current distribution resolver.
func (a *DistArray[T]) Resolver() ttable.Resolver { return a.res }

// MyGlobals returns the global indices of the local section, in local
// order (do not mutate).
func (a *DistArray[T]) MyGlobals() []int { return a.gl }

// FillByGlobal sets every local element from its global index and
// records the modification with the registry (one write event for the
// whole fill, per the paper's block-granularity counting).
func (a *DistArray[T]) FillByGlobal(f func(g int) T) {
	for i, g := range a.gl {
		a.Data[i] = f(g)
	}
	a.s.C.Words(len(a.gl))
	a.NoteWrite()
}

// NoteWrite records that a block of code may have modified this array.
func (a *DistArray[T]) NoteWrite() { a.s.Reg.NoteWrite(a.dad) }

// Mapping is a computed irregular distribution: the runtime form of the
// map array produced by SET distfmt BY PARTITIONING ... USING ... .
// part is aligned with the home BLOCK distribution of the index space.
type Mapping struct {
	n    int
	home dist.BlockDist
	part []int
}

// Size returns the extent of the mapped index space.
func (m *Mapping) Size() int { return m.n }

// MappingFromIntArray builds a Mapping from a user-computed map array
// (the Fortran D "DISTRIBUTE irreg(map)" of the paper's Figure 3):
// map(g) = p assigns element g of the distribution to processor p. The
// map array must be BLOCK-distributed over the index space it maps
// (its home distribution), which is how Figure 3 aligns map with reg.
func (s *Session) MappingFromIntArray(arr *IntArray) *Mapping {
	if arr.dad.Kind != dist.Block {
		panic(fmt.Sprintf("core: map array %q must be BLOCK-distributed", arr.Name))
	}
	p := s.C.Procs()
	part := make([]int, len(arr.Data))
	for i, v := range arr.Data {
		if v < 0 || v >= p {
			panic(fmt.Sprintf("core: map array %q entry %d = %d out of range [0,%d)",
				arr.Name, arr.gl[i], v, p))
		}
		part[i] = v
	}
	s.C.Words(len(part))
	return &Mapping{n: arr.n, home: dist.NewBlock(arr.n, p), part: part}
}

// LocalPart returns this rank's home-aligned slice of the map array
// (do not mutate).
func (m *Mapping) LocalPart() []int { return m.part }

// OwnersOf answers "which rank will own global g" for a batch of
// globals by querying the home-resident map slices. Collective.
func (m *Mapping) OwnersOf(s *Session, globals []int) []int {
	c := s.C
	p := c.Procs()
	type ref struct{ pos, g int }
	byHome := make([][]ref, p)
	for pos, g := range globals {
		if g < 0 || g >= m.n {
			panic(fmt.Sprintf("core: mapping query %d out of range [0,%d)", g, m.n))
		}
		byHome[m.home.Owner(g)] = append(byHome[m.home.Owner(g)], ref{pos, g})
	}
	out := make([][]int, p)
	for h, refs := range byHome {
		for _, r := range refs {
			out[h] = append(out[h], r.g)
		}
	}
	c.Words(len(globals))
	queries := c.ExchangeInts(out, nil) // out's rows are built here and never written again
	lo := m.home.Lo(c.Rank())
	ans := make([][]int, p)
	for src := 0; src < p; src++ {
		if len(queries[src]) == 0 {
			continue
		}
		a := make([]int, len(queries[src]))
		for i, g := range queries[src] {
			a[i] = m.part[g-lo]
		}
		ans[src] = a
	}
	c.Words(len(globals))
	replies := c.ExchangeInts(ans, nil) // ans's rows are built here and never written again
	owners := make([]int, len(globals))
	for h, refs := range byHome {
		for i, r := range refs {
			owners[r.pos] = replies[h][i]
		}
	}
	return owners
}

// Redistribute remaps arrays and intArrays — all currently aligned to
// the same distribution — onto the irregular distribution described by
// m, reusing one redistribution plan (paper Phase C / REDISTRIBUTE).
// Every remapped array receives a fresh DAD and the registry is
// notified, which is what later invalidates saved inspectors that
// referenced the old placement. Collective.
func (s *Session) Redistribute(m *Mapping, arrays []*Array, intArrays []*IntArray) {
	s.timed(TimerRemap, func() {
		var gl []int
		switch {
		case len(arrays) > 0:
			gl = arrays[0].gl
		case len(intArrays) > 0:
			gl = intArrays[0].gl
		default:
			return
		}
		checkAligned(arrays, gl)
		checkAligned(intArrays, gl)
		dest := m.OwnersOf(s, gl)
		pl := remap.Build(s.C, gl, dest)
		newGl := append([]int(nil), pl.NewGlobals()...)
		tab := ttable.Build(s.C, m.n, newGl)
		moveArrays(s, arrays, pl.MoveFloats, newGl, tab)
		moveArrays(s, intArrays, pl.MoveInts, newGl, tab)
	})
}

// checkAligned panics unless every array's local section holds exactly
// the globals gl.
func checkAligned[T float64 | int](arrays []*DistArray[T], gl []int) {
	for _, a := range arrays {
		if !slices.Equal(a.gl, gl) {
			panic(fmt.Sprintf("core: Redistribute of unaligned array %q", a.Name))
		}
	}
}

// moveArrays moves each array's data with move and gives it the new
// placement (globals gl, resolver tab) under a fresh DAD.
func moveArrays[T float64 | int](s *Session, arrays []*DistArray[T], move func(*machine.Ctx, []T) []T, gl []int, tab *ttable.Table) {
	for _, a := range arrays {
		a.Data = move(s.C, a.Data)
		a.gl = gl
		a.res = tab
		a.dad = s.DADs.New(dist.Irregular, a.n)
		s.Reg.NoteRemap(a.dad)
	}
}
