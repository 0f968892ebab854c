// Package a holds one export per case the surface gate decides.
package a

// Namer is satisfied by T, so T.Name counts as used.
type Namer interface{ Name() string }

// T implements Namer.
type T struct{}

// Name is reached only through Namer.
func (T) Name() string { return "t" }

// Used is called from the root module.
func Used() int { return 1 }

// OnlyOther is called only from the second module.
func OnlyOther() int { return 2 }

// Unused is called only from a test.
func Unused() int { return 3 }

// Dead has no caller at all.
func (T) Dead() {}

// unusedHelper is unexported and has no caller.
func unusedHelper() {}
