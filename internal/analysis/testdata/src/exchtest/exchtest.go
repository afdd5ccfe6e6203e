// Package exchtest is golden-file input for the exchangeerr analyzer:
// discarded machine errors and dropped exchange payloads, plus the
// checked forms.
package exchtest

import (
	"context"

	"chaos/chaos"
	"chaos/internal/geocol"
	"chaos/internal/machine"
)

func dropRunError(cfg machine.Config, body func(*machine.Ctx)) {
	machine.Run(cfg, body)     // want "error result of Run discarded"
	_ = machine.Run(cfg, body) // want "error result of Run assigned to _"
}

func dropRunStats(ctx context.Context, cfg machine.Config, body func(*machine.Ctx)) machine.Stats {
	machine.RunStats(ctx, cfg, body)          // want "error result of RunStats discarded"
	_, _ = machine.RunStats(ctx, cfg, body)   // want "error result of RunStats assigned to _"
	st, _ := machine.RunStats(ctx, cfg, body) // want "error result of RunStats assigned to _"
	return st
}

func dropPayload(c *machine.Ctx, ge *geocol.GhostExchange, vals []int) {
	ge.PushInts(c, vals)  // want "exchanged result of PushInts discarded"
	c.SumInt(1)           // want "exchanged result of SumInt discarded"
	c.ShareInts(0, vals)  // want "exchanged result of ShareInts discarded"
	c.GatherInts(0, vals) // want "exchanged result of GatherInts discarded"
}

func checkedRun(cfg machine.Config, body func(*machine.Ctx)) error {
	if err := machine.Run(cfg, body); err != nil {
		return err
	}
	return nil
}

func usedPayload(c *machine.Ctx, ge *geocol.GhostExchange, vals []int) []int {
	ghost := ge.PushInts(c, vals)
	return ghost
}

func dropPublicRun(cfg chaos.Config, body func(*chaos.Session)) {
	chaos.Run(cfg, body) // want "error result of Run discarded"
}

func dropByGoAndDefer(cfg machine.Config, body func(*machine.Ctx)) {
	go machine.Run(cfg, body)    // want "error result of Run discarded by go statement"
	defer machine.Run(cfg, body) // want "error result of Run discarded by defer"
}

func blankPayload(c *machine.Ctx) {
	_ = c.SumInt(1) // want "exchanged result of SumInt assigned to _"
}
