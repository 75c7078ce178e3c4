// Package linktest holds test helpers shared by the tests of the packages
// that put frames on the air through link's frame loop.
package linktest

import "context"

// RoundLimitedCtx reports cancellation after a fixed number of Err calls.
// The frame loop checks its context before every query round, so the
// budget picks the round inside a frame at which a transfer sees the
// cancellation.
type RoundLimitedCtx struct {
	context.Context
	Calls int
}

// Err passes Calls times, then reports context.Canceled.
func (c *RoundLimitedCtx) Err() error {
	c.Calls--
	if c.Calls < 0 {
		return context.Canceled
	}
	return nil
}
