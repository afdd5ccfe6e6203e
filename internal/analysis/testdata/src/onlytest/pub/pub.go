// Package pub is the testonly fixture's public package.
package pub

import "chaos/internal/analysis/testdata/src/onlytest/internal/decl"

type Alias = decl.Aliased
