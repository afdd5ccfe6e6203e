// Package core is the heart of the CHAOS-Go runtime: it orchestrates
// the five phases of the paper's Figure 2 on the simulated machine.
//
//	Phase A: build the GeoCoL graph and partition it     (Construct, SetPartitioning)
//	Phase B: partition loop iterations                   (PartitionIterations)
//	Phase C: remap arrays and loop iterations            (Redistribute)
//	Phase D: preprocess loops — the inspector            (Loop.Inspect, cached via the registry)
//	Phase E: execute loops — the executor                (Loop.Execute)
//
// A Session carries the per-rank runtime state: the DAD allocator, the
// schedule-reuse registry, and named virtual-time phase timers used by
// the experiment harness to regenerate the paper's tables.
package core

import (
	"sort"

	"chaos/internal/dist"
	"chaos/internal/machine"
	"chaos/internal/registry"
)

// Session is one rank's CHAOS runtime instance. All ranks create their
// session inside the same SPMD body; the allocator and registry advance
// identically on every rank, which keeps DAD identities and reuse
// decisions globally consistent without communication.
type Session struct {
	C    *machine.Ctx
	DADs *dist.DADAllocator
	Reg  *registry.Registry

	timers map[string]float64
}

// Timer names used by the runtime. The experiment harness reports
// these per paper-table row.
const (
	TimerGraphGen  = "graphgen"
	TimerPartition = "partition"
	TimerRemap     = "remap"
	TimerInspector = "inspector"
	TimerExecutor  = "executor"
)

// NewSession creates the per-rank runtime state.
func NewSession(c *machine.Ctx) *Session {
	return &Session{
		C:      c,
		DADs:   dist.NewDADAllocator(),
		Reg:    registry.New(),
		timers: make(map[string]float64),
	}
}

// timed runs f and attributes the virtual time it consumed to the named
// phase timer.
func (s *Session) timed(name string, f func()) {
	start := s.C.Clock()
	f()
	s.timers[name] += s.C.Clock() - start
}

// Timer returns the accumulated virtual seconds attributed to a phase
// on this rank.
func (s *Session) Timer(name string) float64 { return s.timers[name] }

// TimerNames returns the phases with nonzero time, sorted.
func (s *Session) TimerNames() []string {
	names := make([]string, 0, len(s.timers))
	for n := range s.timers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ResetTimers zeroes all phase timers.
func (s *Session) ResetTimers() {
	for n := range s.timers {
		delete(s.timers, n)
	}
}

// TimerMax returns the maximum over ranks of the named phase timer —
// the makespan figure reported in the paper's tables. Collective.
func (s *Session) TimerMax(name string) float64 {
	return s.C.MaxFloat(s.timers[name])
}
