// Package fixture is the root module of the surface gate's test fixture.
package fixture

import "fixture/internal/a"

// Run calls the exports the root module uses.
func Run() int {
	s := a.NewS()
	return a.Used() + s.Get() + *s.Addr() + a.Apply(a.Config{FromRoot: 1, Allowed: 2}) +
		a.Tune(a.Options{Set: 1}, a.Plan{}, a.Params{})
}

var _ a.Namer = a.T{}

// The proc-site cases: the root module uses both.
var _, _ = a.Spawn, a.T.Step
