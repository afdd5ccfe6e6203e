// Package spmdtest is golden-file input for the spmdcollective
// analyzer. It is skipped by ./... wildcards (testdata) and loaded
// explicitly by the analyzer tests; each "want" comment is an expected
// diagnostic on its line.
package spmdtest

import "chaos/internal/machine"

// rankConditional calls a collective under a rank-valued condition.
func rankConditional(c *machine.Ctx) {
	if c.Rank() == 0 {
		c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// earlyExit strands the barrier on ranks taking the return.
func earlyExit(c *machine.Ctx) {
	if c.Rank() == 0 {
		return
	}
	c.Barrier() // want "skipped by ranks taking the rank-conditional return"
}

// derivedTaint branches on a value computed from the rank.
func derivedTaint(c *machine.Ctx) {
	n := c.Rank() * 2
	for i := 0; i < n; i++ {
		c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// gatherCount wraps a reduction, so it is transitively collective.
func gatherCount(c *machine.Ctx) int {
	return c.SumInt(1)
}

// indirect diverges through the wrapper, not a Ctx method.
func indirect(c *machine.Ctx) {
	if c.Rank() > 0 {
		_ = gatherCount(c) // want "control-dependent on rank-valued condition"
	}
}

// loopBreak strands the second barrier on the breaking rank only.
func loopBreak(c *machine.Ctx, rounds int) {
	for i := 0; i < rounds; i++ {
		if c.Rank() == 0 {
			break
		}
		c.Barrier() // want "skipped by ranks taking the rank-conditional break"
	}
}

// uniform branches on a replicated reduction: every rank computes the
// identical value, so the conditional collective stays matched. Clean.
func uniform(c *machine.Ctx) {
	cut := c.SumInt(1)
	if cut > 0 {
		c.Barrier()
	}
}

// hostDriver shows the closure boundary: rank work inside the SPMD body
// neither taints the host's error nor exposes the body's collectives to
// the host's early return. Clean.
func hostDriver() error {
	err := machine.Run(machine.Config{Procs: 2}, func(c *machine.Ctx) {
		if c.Rank() == 0 {
			_ = gatherCount // reference only; no call under the branch
		}
		c.Barrier()
	})
	if err != nil {
		return err
	}
	return nil
}

// switchOnRank diverges through a tagged switch.
func switchOnRank(c *machine.Ctx) {
	switch c.Rank() {
	case 0:
		c.Barrier() // want "control-dependent on rank-valued condition"
	default:
	}
}

// switchOnCase diverges through an untagged switch with a rank-valued
// case expression.
func switchOnCase(c *machine.Ctx) {
	r := c.Rank()
	switch {
	case r == 0:
		c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// rangeDivergence iterates a slice whose length differs per rank.
func rangeDivergence(c *machine.Ctx) {
	verts := make([]int, c.Rank()+1)
	for range verts {
		c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// varSpecTaint taints through a var declaration.
func varSpecTaint(c *machine.Ctx) {
	var n = c.Rank() + 1
	if n > 1 {
		c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// closureDivergence calls a collective-performing closure (closure
// calling closure) under a rank branch.
func closureDivergence(c *machine.Ctx) {
	f := func() { c.Barrier() }
	g := func() { f() }
	if c.Rank() == 0 {
		g() // want "control-dependent on rank-valued condition"
	}
}

// continueExit strands the barrier on the continuing rank's iteration.
func continueExit(c *machine.Ctx, rounds int) {
	for i := 0; i < rounds; i++ {
		if c.Rank() == 0 {
			continue
		}
		c.Barrier() // want "skipped by ranks taking the rank-conditional continue"
	}
}

// deferDivergence defers a collective under a rank branch.
func deferDivergence(c *machine.Ctx) {
	if c.Rank() == 0 {
		defer c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// shareOnRootOnly shares from inside the root's branch: the other ranks
// never arrive at the rendezvous. The uncharged share is a collective
// like any other.
func shareOnRootOnly(c *machine.Ctx, xs []int) []int {
	if c.Rank() == 0 {
		xs = c.ShareInts(0, xs) // want "control-dependent on rank-valued condition"
	}
	return xs
}

// computeOnceThenShare is the sanctioned shape: only the computation
// sits under the rank condition, every rank reaches the share. Clean.
func computeOnceThenShare(c *machine.Ctx, xs []int) []int {
	if c.Rank() == 0 {
		for i := range xs {
			xs[i] *= 2
		}
	}
	return c.ShareInts(0, xs)
}

// gatherOnRootOnly gathers from inside the root's branch: a root-only
// gather delivers to one rank, but every rank deposits, so the other
// ranks never arriving is the same hang.
func gatherOnRootOnly(c *machine.Ctx, xs []int) []int {
	if c.Rank() == 0 {
		return c.GatherInts(0, xs) // want "control-dependent on rank-valued condition"
	}
	return nil
}

// gatherThenUseOnRoot is the sanctioned shape: every rank reaches the
// gather, only the use of what it delivered sits under the rank
// condition. Clean.
func gatherThenUseOnRoot(c *machine.Ctx, xs []int) int {
	all, sum := c.GatherInts(0, xs), 0
	if c.Rank() == 0 {
		for _, x := range all {
			sum += x
		}
	}
	return sum
}

// goDivergence spawns a collective under a rank branch.
func goDivergence(c *machine.Ctx) {
	if c.Rank() == 0 {
		go c.Barrier() // want "control-dependent on rank-valued condition"
	}
}

// kitchenSink exercises the statement dispatch with no divergence:
// labels, selects, sends, increments, type switches. Clean.
func kitchenSink(c *machine.Ctx, ch chan int, v interface{}) {
	i := 0
Loop:
	for {
		i++
		select {
		case x := <-ch:
			i += x
		default:
			break Loop
		}
	}
	switch v.(type) {
	case int:
		ch <- i
	default:
	}
	c.Barrier()
}
