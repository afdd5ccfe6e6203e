package kernel

import (
	"math"
	"testing"
)

// At reads Vals through Ref: the local section and the ghost tail
// behind it alike.
func TestSourceAt(t *testing.T) {
	s := Source{Vals: []float64{10, 11, 12, 20, 21}, Ref: []int{4, 0, 3, 2}}
	for b, want := range []float64{21, 10, 20, 12} {
		if got := s.At(b); got != want {
			t.Errorf("At(%d) = %v, want %v", b, got, want)
		}
	}
}

// Combine adds inline under Add and goes through Op otherwise, into the
// element Ref names, in call order.
func TestTargetCombine(t *testing.T) {
	sum := Target{Buf: []float64{math.Copysign(0, -1), 1}, Ref: []int{0, 1, 0}, Add: true}
	sum.Combine(0, math.Copysign(0, -1))
	sum.Combine(1, 2)
	if math.Float64bits(sum.Buf[0]) != math.Float64bits(math.Copysign(0, -1)) || sum.Buf[1] != 3 {
		t.Errorf("Add: buffer %v, want [-0 3]", sum.Buf)
	}
	sum.Combine(2, 0.5)
	if sum.Buf[0] != 0.5 {
		t.Errorf("Add: element 0 = %v, want 0.5", sum.Buf[0])
	}
	var order []float64
	last := Target{Buf: []float64{0}, Ref: []int{0, 0}, Op: func(owned, contrib float64) float64 {
		order = append(order, contrib)
		return contrib
	}}
	last.Combine(0, 7)
	last.Combine(1, 8)
	if last.Buf[0] != 8 || len(order) != 2 || order[0] != 7 {
		t.Errorf("Op: buffer %v after contributions %v, want 8 after [7 8]", last.Buf, order)
	}
}
