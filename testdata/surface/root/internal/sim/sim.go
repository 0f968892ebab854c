// Package sim stands in for the simulator kernel in the proc-site gate's
// fixture.
package sim

// Env is an environment.
type Env struct{}

// Go starts a proc.
func (e *Env) Go(name string, fn func()) {}

// Proc is a proc.
type Proc struct{}
