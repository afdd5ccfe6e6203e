// Command caller is the testonly fixture's non-test importer of decl.
package main

import "chaos/internal/analysis/testdata/src/onlytest/internal/decl"

func main() {
	o := decl.Opts{A: 1}
	o.B++
	println(decl.Used()+o.Read(), error(decl.Err{}) != nil)
}
