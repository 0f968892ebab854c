//go:build go1.23

// iter.Pull arrived in Go 1.23, but go.mod stays at go 1.22 so that the
// nested bench module, which requires this one, builds without a go.mod
// update. The build constraint raises this one file to Go 1.23 and keeps
// the coroutine dependency in one place.

package sim

import "iter"

// newCarrier returns a carrier bound to e whose coroutine has not started;
// the first next runs carrier.run until its first yield.
func (e *Env) newCarrier() *carrier {
	c := &carrier{env: e}
	c.next, c.stop = iter.Pull(c.run)
	return c
}
