package stream

// MeshCSR and PinGraph export the graph generators of
// TestStreamPartitionsPinned to this package's external tests (package
// stream_test), which may import the partitioner library that imports
// this package.
var MeshCSR = meshCSR

// PinGraph returns the CSR of the pinGraphs graph named name.
func PinGraph(name string) (xadj, adj []int) {
	for _, g := range pinGraphs() {
		if g.name == name {
			return g.xadj, g.adj
		}
	}
	panic("stream: no pin graph " + name)
}
