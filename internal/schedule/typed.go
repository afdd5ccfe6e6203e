package schedule

import "chaos/internal/machine"

// Typed and vector data movement. The CHAOS library moved more than
// scalar doubles: solvers gather integer connectivity and, most
// importantly, multi-component state vectors (an unstructured Euler
// solver carries 4-5 conserved quantities per mesh point). A vector
// gather moves ncomp contiguous components per scheduled element with
// one message per peer, amortizing per-message overhead across
// components — which is why CHAOS provided fused vector schedules
// rather than calling the scalar gather ncomp times.

// GatherInts executes the schedule owner→consumer for an int array.
func (s *Schedule) GatherInts(c *machine.Ctx, local, ghost []int) {
	move(c, s, &s.ints, (*machine.Ctx).ExchangeInts, "GatherInts", local, ghost, 1, nil)
}

// GatherVec executes the schedule for a vector array with ncomp
// components per element, laid out element-major: component k of local
// element l lives at local[l*ncomp+k], and likewise for ghost slots.
// All components of an element travel in one message.
func (s *Schedule) GatherVec(c *machine.Ctx, local, ghost []float64, ncomp int) {
	move(c, s, &s.floats, (*machine.Ctx).ExchangeFloats, "GatherVec", local, ghost, ncomp, nil)
}

// ScatterAddVec is the consumer→owner reduction for vector arrays: each
// component of every ghost element is added into the owner's element.
func (s *Schedule) ScatterAddVec(c *machine.Ctx, local, ghost []float64, ncomp int) {
	move(c, s, &s.floats, (*machine.Ctx).ExchangeFloats, "ScatterAddVec", local, ghost, ncomp, addFloat)
}
