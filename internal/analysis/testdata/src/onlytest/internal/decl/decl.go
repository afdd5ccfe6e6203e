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

type Aliased struct{ X int }  // pub's Alias makes it, Make and X public
func (Aliased) Make() *Result { return nil }

type Result struct{ Y int } // public through Make's result
func (*Result) Get() int    { return 0 }

//chaosvet:ignore testonly the closed form decl_test.go compares against
func Oracle() int { return 1 }

//chaosvet:ignore testonly
func Unexplained() {} // want "decl.Unexplained has no non-test reference"
