// Package fixture is the root module of the surface gate's test fixture.
package fixture

import "fixture/internal/a"

// Run calls the one export the root module uses.
func Run() int { return a.Used() }

var _ a.Namer = a.T{}
