// Package kernel is the contract between the executor (internal/core)
// and a loop body: what one kernel call receives of a strip of
// iterations. It sits below core, so workload packages (mesh, md) can
// write strip kernels without importing the runtime that calls them.
package kernel

// Strip is one kernel call: a strip of locally owned iterations and,
// per access, where its iterations read from or combine into. The
// kernel runs the whole strip in one loop: for each iteration b, in
// order, it gathers operand j as Reads[j].At(b), computes the body for
// global iteration Iters[b], and combines contribution k with
// Writes[k].Combine(b, v). Each accumulation buffer thereby receives
// its contributions in iteration order, which keeps results
// bit-identical across strip lengths and kernels.
//
// The executor reuses a Strip from call to call: a kernel must not
// retain it, and writes nothing through it but Buf elements of its
// targets that its iterations reference.
type Strip struct {
	Iters  []int
	Reads  []Source
	Writes []Target
}

// Source is one read access over a strip. Its elements form one vector
// [Local | Ghost] — the array's local section followed by the ghost
// values this step's gather brought in — and Ref[b] is iteration b's
// index into it.
type Source struct {
	Local, Ghost []float64
	Ref          []int
}

// At returns iteration b's operand.
func (s *Source) At(b int) float64 {
	r := s.Ref[b]
	if r < len(s.Local) {
		return s.Local[r]
	}
	return s.Ghost[r-len(s.Local)]
}

// Target is one write access over a strip: its accumulation buffer
// (the array's local section followed by the schedule's ghost slots,
// reset to the reduction's identity at the start of each step), Ref[b]
// iteration b's index into it, and the access's reduction. Op combines
// the value held with a contribution for every reduction; Add reports
// REDUCE(ADD), which a kernel may apply inline as Buf[Ref[b]] += v.
type Target struct {
	Buf []float64
	Ref []int
	Add bool
	Op  func(owned, contrib float64) float64
}

// Combine combines v, iteration b's contribution, into its element.
func (t *Target) Combine(b int, v float64) {
	r := t.Ref[b]
	if t.Add {
		t.Buf[r] += v
		return
	}
	t.Buf[r] = t.Op(t.Buf[r], v)
}
