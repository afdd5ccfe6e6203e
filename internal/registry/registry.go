// Package registry implements the conservative communication-schedule
// reuse method of the paper's Section 3.
//
// The compiler-generated code maintains, at runtime, a record of when
// any Fortran 90D loop, statement or array intrinsic may have written
// to a distributed array. A global counter nmod — "a global time stamp"
// — counts executed code blocks that modify any distributed array, and
// lastmod(DAD) maps each data access descriptor to the nmod value at
// its most recent possible modification. Each inspector for a loop L
// stores the DADs of L's data arrays, the DADs of L's indirection
// arrays, and the lastmod stamps of the indirection arrays; before a
// subsequent execution of L the saved results (communication schedules,
// loop-iteration partitions, buffer associations) may be reused iff
//
//  1. DAD(x_i)   == L.DAD(x_i)    for every data array x_i,
//  2. DAD(ind_j) == L.DAD(ind_j)  for every indirection array ind_j,
//  3. lastmod(DAD(ind_j)) == L.lastmod(L.DAD(ind_j)) for every ind_j.
//
// Remapping an array mints a fresh DAD, so conditions 1–2 catch
// redistribution; condition 3 catches writes through an unchanged
// distribution. The same mechanism guards GeoCoL graph construction, so
// the runtime also avoids rebuilding and repartitioning when nothing
// changed.
package registry

import "chaos/internal/dist"

// Registry is one rank's modification record. In the SPMD runtime
// every rank owns a replica and applies identical updates in program
// order, so all replicas agree without communication.
type Registry struct {
	nmod int
	last map[uint64]int

	// Statistics for experiments.
	hits, misses int
}

// New returns an empty registry with nmod = 0.
func New() *Registry {
	return &Registry{last: make(map[uint64]int)}
}

// Nmod returns the current global timestamp.
func (r *Registry) Nmod() int { return r.nmod }

// NoteWrite records that one block of code (a loop, statement or array
// intrinsic) may have modified an array with descriptor d. Per the
// paper this is counted once per executed block, not once per element
// assignment.
func (r *Registry) NoteWrite(d dist.DAD) {
	r.nmod++
	r.last[d.ID] = r.nmod
}

// NoteRemap records that an array was remapped and now carries the
// fresh descriptor newDAD: "we increment nmod and then set
// lastmod(DAD(a)) = nmod".
func (r *Registry) NoteRemap(newDAD dist.DAD) {
	r.nmod++
	r.last[newDAD.ID] = r.nmod
}

// LastMod returns lastmod(d): the timestamp of the most recent possible
// modification of any array carrying descriptor d (0 if never
// modified since the descriptor was minted).
func (r *Registry) LastMod(d dist.DAD) int { return r.last[d.ID] }

// Stats returns the number of inspector reuse hits and misses observed
// by Check since the registry was created.
func (r *Registry) Stats() (hits, misses int) { return r.hits, r.misses }

// LoopRecord stores what loop L's inspector recorded the last time it
// ran: L.DAD(x_i), L.DAD(ind_j), and L.lastmod(DAD(ind_j)).
type LoopRecord struct {
	valid     bool
	dataDADs  []dist.DAD
	indDADs   []dist.DAD
	indStamps []int
}

// Valid reports whether the record holds a completed inspector.
func (lr *LoopRecord) Valid() bool { return lr.valid }

// Invalidate discards the record, forcing the next Check to miss.
func (lr *LoopRecord) Invalidate() { lr.valid = false }

// Check evaluates the three reuse conditions for a loop whose current
// data-array descriptors are data and indirection-array descriptors are
// ind. It returns true when the saved inspector results may be reused.
// The check itself is pure bookkeeping: a handful of integer
// comparisons per array, which is what makes amortization profitable.
func (r *Registry) Check(lr *LoopRecord, data, ind []dist.DAD) bool {
	ok := lr.check(r, data, ind)
	if ok {
		r.hits++
	} else {
		r.misses++
	}
	return ok
}

func (lr *LoopRecord) check(r *Registry, data, ind []dist.DAD) bool {
	if !lr.valid || len(data) != len(lr.dataDADs) || len(ind) != len(lr.indDADs) {
		return false
	}
	for i, d := range data {
		if !d.Equal(lr.dataDADs[i]) {
			return false // condition 1
		}
	}
	for j, d := range ind {
		if !d.Equal(lr.indDADs[j]) {
			return false // condition 2
		}
		if r.LastMod(d) != lr.indStamps[j] {
			return false // condition 3
		}
	}
	return true
}

// Record saves the descriptors and indirection timestamps after an
// inspector has completed, making the record valid.
func (r *Registry) Record(lr *LoopRecord, data, ind []dist.DAD) {
	lr.dataDADs = append(lr.dataDADs[:0], data...)
	lr.indDADs = append(lr.indDADs[:0], ind...)
	lr.indStamps = lr.indStamps[:0]
	for _, d := range ind {
		lr.indStamps = append(lr.indStamps, r.LastMod(d))
	}
	lr.valid = true
}
