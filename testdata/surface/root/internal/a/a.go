// Package a holds one export per case the surface gate decides.
package a

import "fixture/internal/sim"

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

// S holds one unexported field per case the write-only field gate decides.
type S struct {
	read    int   // read by Get
	written int   // set in a literal, assigned and incremented, never read
	addr    int   // only assigned, but Addr hands out its address
	log     []int // only ever appended to itself
}

// NewS writes every field of S.
func NewS() *S {
	s := &S{written: 1}
	s.written++
	s.written += 2
	s.addr = 4
	s.log = append(s.log, 1)
	return s
}

// Get reads S.read.
func (s *S) Get() int { return s.read }

// Addr takes S.addr's address.
func (s *S) Addr() *int { return &s.addr }

// Config holds one knob per case the config-knob gate decides.
type Config struct {
	FromRoot  int // set by the root module's fixture.go
	FromOther int // set only by the second module
	Defaulted int // set only by withDefaults
	TestOnly  int // set only in a_test.go
	Allowed   int // allowlisted, yet set by fixture.go
}

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c
}

// Apply reads every knob of c.
func Apply(c Config) int {
	c = c.withDefaults()
	return c.FromRoot + c.FromOther + c.Defaulted + c.TestOnly + c.Allowed
}

// Options and Plan are input structs too, so the knob gate covers them.
type Options struct {
	Set   int // set by the root module's fixture.go
	Unset int // set by no caller
}

// Plan's one knob is set by no caller.
type Plan struct{ Unset int }

// Params is not named like an input struct: its fields are no knobs.
type Params struct{ Unset int }

// Tune reads every field of its inputs.
func Tune(o Options, p Plan, q Params) int { return o.Set + o.Unset + p.Unset + q.Unset }

// Spawn starts a proc: a proc site, allowlisted.
func Spawn(e *sim.Env) { e.Go("spawned", func() {}) }

// Step takes a proc: a proc site, not allowlisted.
func (T) Step(p *sim.Proc) {}
