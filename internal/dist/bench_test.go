package dist

import "testing"

// BenchmarkBlockOwner measures the closed-form BLOCK ownership query —
// the fast path the executor takes for every regularly distributed
// reference.
func BenchmarkBlockOwner(b *testing.B) {
	d := NewBlock(53961, 64) // paper's 53K mesh on 64 processors
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		g := i % 53961
		sink += d.Owner(g) + d.Local(g)
	}
	_ = sink
}

// BenchmarkDADAllocate measures descriptor minting, which happens on
// every array declaration and every remap.
func BenchmarkDADAllocate(b *testing.B) {
	a := NewDADAllocator()
	b.ReportAllocs()
	var sink DAD
	for i := 0; i < b.N; i++ {
		sink = a.New(Irregular, 53961)
	}
	_ = sink
}
