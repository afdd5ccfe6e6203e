// Package decl is the testonly fixture's declaring package.
package decl

func Used() int  { return 1 }    // called by package caller
func Recursive() { Recursive() } // want "decl.Recursive has no non-test reference"
const Limit = 3  // want "decl.Limit has no non-test reference"

type Orphan struct{}   // want "decl.Orphan has no non-test reference"
func (Orphan) Method() {} // want "decl.Orphan.Method has no non-test reference"

type Opts struct { // caller writes A in a literal and B by ++; decl_test.go writes C
	A, B int
	C    int // want "decl.Opts.C is written by no non-test code"
	D    int // want "decl.Opts.D is written by no non-test code"
}

func (o Opts) Read() int { return o.D } // a read is no write

type Err struct{}         // named by caller; Error satisfies error
func (Err) Error() string { return "decl" }

type Aliased struct{ X int }  // want "decl.Aliased.X is written by no non-test code"
func (Aliased) Make() *Result { return nil } // want "decl.Aliased.Make has no non-test reference"

type Result struct{ Y int } // want "decl.Result.Y is written by no non-test code"
func (*Result) Get() int    { return 0 } // want "decl.Result.Get has no non-test reference"

type Inner struct{ P int } // caller writes P only through Outer: both fields are written
type Outer struct{ Inner }

//chaosvet:ignore testonly the closed form decl_test.go compares against
func Oracle() int { return 1 }

//chaosvet:ignore testonly
func Unexplained() {} // want "decl.Unexplained has no non-test reference"

// Shape is the module's own interface: it exempts a method only if
// non-test code calls that method through it. caller calls Volume.
type Shape interface {
	Volume() int
	Weight() int // want "decl.Shape.Weight has no non-test reference"
}

type Box struct{}       // named by caller
func (Box) Volume() int { return 1 } // called through Shape by caller
func (Box) Weight() int { return 2 } // want "decl.Box.Weight has no non-test reference"
