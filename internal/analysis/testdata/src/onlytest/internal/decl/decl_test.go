package decl

import "testing"

func TestDecl(t *testing.T) {
	Orphan{}.Method()
	_ = Opts{C: Limit + Oracle() + Box{}.Weight() + Shape(Box{}).Weight()}
}
