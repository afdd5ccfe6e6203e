// Command caller is the testonly fixture's non-test importer of decl.
package main

import "chaos/internal/analysis/testdata/src/onlytest/internal/decl"

func main() {
	o := decl.Opts{A: 1}
	o.B++
	var out decl.Outer
	out.P = 2
	var s decl.Shape = decl.Box{}
	println(decl.Used()+o.Read()+out.P+s.Volume(), error(decl.Err{}) != nil)
}
