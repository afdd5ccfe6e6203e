// Package hottest is golden-file input for the hotalloc analyzer:
// //chaos:hotpath functions with per-iteration allocations, plus clean
// variants using the repository's preallocation and reuse idioms.
package hottest

import "fmt"

// hotMake allocates a fresh buffer every iteration.
//
//chaos:hotpath
func hotMake(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		buf := make([]int, n) // want "make allocates per loop iteration"
		total += len(buf)
	}
	fmt.Println(total) // want "allocates and boxes its operands"
	return total
}

// hotAppend grows a local with no capacity evidence.
//
//chaos:hotpath
func hotAppend(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want "append grows out without a capacity hint"
	}
	return out
}

// hotClosure births a closure per iteration.
//
//chaos:hotpath
func hotClosure(xs []int) int {
	s := 0
	for _, x := range xs {
		f := func() int { return x } // want "closure allocated per loop iteration"
		s += f()
	}
	return s
}

// hotBox boxes a concrete int into an interface parameter per call.
//
//chaos:hotpath
func hotBox(xs []int) {
	for _, x := range xs {
		sink(x) // want "boxes a concrete int into interface"
	}
}

func sink(v interface{}) { _ = v }

// hinted preallocates and reuses; setup allocations before the loops
// are allowed. Clean.
//
//chaos:hotpath
func hinted(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	var scratch []int
	for i := 0; i < n; i++ {
		scratch = scratch[:0]
		scratch = append(scratch, i)
	}
	return append(out, scratch...)
}

// cold is not annotated: identical constructs are out of scope. Clean.
func cold(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, make([]int, n)...)
	}
	return out
}

// hotKitchen exercises the statement dispatch: literals inside switch
// arms are per-iteration allocations, conversions and slice forwarding
// are not.
//
//chaos:hotpath
func hotKitchen(n int, ch chan []int, vs []interface{}) int {
	total := 0
Loop:
	for i := 0; i < n; i++ {
		switch i % 2 {
		case 0:
			m := map[int]int{i: i} // want "map literal allocates per loop iteration"
			total += len(m)
		default:
			s := []int{i} // want "slice literal allocates per loop iteration"
			total += len(s)
		}
		switch v := vs[i%len(vs)].(type) {
		case int:
			total += v
		default:
		}
		select {
		case buf := <-ch:
			total += len(buf)
		default:
			break Loop
		}
		total += int(int64(i)) // conversion, not an allocating call
	}
	seed := make([]int, n) // setup allocation outside the loops: allowed
	for i := range seed {
		seed[i] = i
		sinkAll(vs...) // forwarding a slice: no boxing
	}
	for i := 0; i < n; i++ {
		ch <- seed // reusing the setup buffer: clean
		_ = i
	}
	go sinkAll()
	defer sinkAll()
	var local = make([]int, 0, n) // hinted DeclStmt
	for i := 0; i < n; i++ {
		local = append(local, i)
	}
	return total + len(local)
}

func sinkAll(vs ...interface{}) { _ = vs }

// hotDecl allocates through a var declaration inside the loop.
//
//chaos:hotpath
func hotDecl(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		var buf = make([]int, n) // want "make allocates per loop iteration"
		total += len(buf)
	}
	return total
}

// hotAssert asserts to interface types, which may allocate the first
// time the runtime grows the site's cache, in a loop or not; assertions
// to concrete types and concrete type switch cases are clean.
//
//chaos:hotpath
func hotAssert(v interface{}, vs []interface{}) int {
	total := 0
	if s, ok := v.(namer); ok { // want "type assertion to interface namer"
		total += len(s.Name())
	}
	_ = v.(error) // want "type assertion to interface error"
	for _, x := range vs {
		if n, ok := x.(int); ok { // concrete: clean
			total += n
		}
		switch x := x.(type) {
		case int, nil: // concrete and nil cases: clean
			_ = x
		case namer: // want "type switch case on interface namer"
			total++
		}
	}
	return total
}

type namer interface{ Name() string }
