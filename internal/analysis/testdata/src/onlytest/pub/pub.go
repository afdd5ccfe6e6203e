// Package pub is the testonly fixture's public package: its alias
// exempts nothing of decl.Aliased that no non-test code uses.
package pub

import "chaos/internal/analysis/testdata/src/onlytest/internal/decl"

type Alias = decl.Aliased
