// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-backed processes.
//
// The kernel substitutes for wall-clock concurrency in the Olympian
// reproduction: simulated CPU threads (Proc) block and resume on the same
// primitives the paper's middleware uses (sleeps, condition variables,
// one-shot events), but time is virtual, exactly one process runs at a time,
// and same-timestamp events fire in a stable (time, sequence) order, so every
// experiment is reproducible from its seed.
//
// Concurrency model: every process runs on a carrier, an iter.Pull coroutine
// that is reused rather than ended: an environment keeps the carriers of
// exited processes on an idle list for its next Go, and Shutdown hands them
// to a process-wide pool for later environments. A spawn therefore costs no
// goroutine and no channel. The goroutine that called Run (the loop owner)
// pops events and switches into the carrier of each process it dispatches.
// A parking process runs the event loop in place (see step): when the next
// event resumes that same process it simply returns, with no switch at all;
// otherwise it names the process to run next in Env.handoff and yields to the
// owner, which resumes that carrier — two coroutine switches that never enter
// the Go scheduler. Process code therefore runs under total mutual exclusion
// and may freely mutate shared simulation state between blocking points
// without locks, and a panic in a process surfaces from Run on the owner's
// goroutine. Shutdown resumes each remaining process with its kill flag set,
// and the process unwinds from the point where it parked.
//
// Guarded wake-ups: Semaphore and WaitGroup give their Cond a guard, their
// own wait condition. When step pops the resumption of a process waiting on
// such a Cond and the condition is false again (a running process took the
// slot a Release freed before the woken waiter could), it re-queues the
// process at the back of the waiters itself, as the process's own wait loop
// would, and spends no switch on it. Env.Handoffs counts the switches that
// remain.
//
// Event representation: the queue is a 4-ary min-heap of event values —
// no container/heap interface boxing, no per-event pointer allocation. An
// event is either a callback (fn) or the resumption of a parked process
// (proc); the dedicated dispatch kind keeps Sleep, Event.Trigger, and
// Cond.Signal from allocating a wakeup closure. Vacated heap slots are
// recycled in place, so the backing array doubles as the event free list.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration re-exports time.Duration for virtual intervals.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the interval between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as a duration since the start of the run.
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled occurrence: a callback when fn is set, or the
// resumption of a parked process when proc is set.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// eventHeap is a 4-ary min-heap of event values ordered by (at, seq).
// Compared with container/heap's binary heap of pointers it needs no
// interface conversions, no per-event allocation, and half the tree depth;
// sibling comparisons stay within one or two cache lines.
type eventHeap []event

func eventBefore(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventBefore(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release closure/proc references
	s = s[:n]
	*h = s
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventBefore(&s[j], &s[m]) {
				m = j
			}
		}
		if !eventBefore(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of live processes.
type Env struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand

	handoff  *Proc      // the proc a yielding carrier asks the loop owner to resume
	handoffs uint64     // carrier switches made by the loop owner
	idle     []*carrier // carriers whose proc has exited, reused by Go
	live     int        // non-daemon procs that have started and not yet exited
	procs    map[*Proc]struct{}
	procSeq  int

	stopped  bool
	shutdown bool
	limit    Time // 0 means no limit

	// Heartbeats fire at fixed virtual-time boundaries without occupying
	// the event queue: the run loop checks hbNext (maxTime when none are
	// registered — one predictable comparison on the hot path) before
	// executing each popped event and fires every boundary strictly below
	// the event's timestamp. A heartbeat therefore sees the simulation
	// state exactly as of its boundary — all events at or before it have
	// run, none after — and schedules nothing itself, so registering one
	// cannot perturb event order, randomness, or run termination.
	hbs    []heartbeat
	hbNext Time
}

// heartbeat is one registered fixed-interval callback.
type heartbeat struct {
	every Time
	next  Time
	fn    func(at Time)
}

// maxTime is the sentinel hbNext value when no heartbeats are registered.
const maxTime = Time(1<<63 - 1)

// NewEnv returns an environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:    rand.New(rand.NewSource(seed)),
		procs:  make(map[*Proc]struct{}),
		hbNext: maxTime,
	}
}

// Heartbeat registers fn to run at every multiple of the interval on the
// virtual clock (first at one interval past the current time). Callbacks
// fire lazily, immediately before the first event with a later timestamp
// executes, so an event scheduled exactly on a boundary is included in that
// boundary's view of the state; boundaries past the last event never fire.
// fn must only read simulation state — it must not schedule events, spawn
// processes, or draw randomness. Multiple heartbeats may be registered (a
// single-heap sharded engine registers one per shard on the shared
// environment); same-time boundaries fire in registration order.
func (e *Env) Heartbeat(every Duration, fn func(at Time)) {
	if every <= 0 || fn == nil {
		return
	}
	hb := heartbeat{every: Time(every), next: e.now + Time(every), fn: fn}
	e.hbs = append(e.hbs, hb)
	if hb.next < e.hbNext {
		e.hbNext = hb.next
	}
}

// fireHeartbeats runs every due boundary strictly below at, in (boundary
// time, registration order), and recomputes the next-due cache.
func (e *Env) fireHeartbeats(at Time) {
	for {
		best := -1
		bt := maxTime
		for i := range e.hbs {
			if e.hbs[i].next < bt {
				best, bt = i, e.hbs[i].next
			}
		}
		if best < 0 || bt >= at {
			e.hbNext = bt
			return
		}
		e.hbs[best].fn(bt)
		e.hbs[best].next = bt + e.hbs[best].every
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's seeded random source. It must only be used
// from process context or event callbacks so that draw order is
// deterministic.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Schedule runs fn at time e.Now()+d. fn executes in event-loop context and
// must not block; to run blocking code, spawn a process with Go.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, fn: fn})
}

// ScheduleTrain runs fire n times, the i-th time at e.Now()+d_i, where d_i is
// the i-th value next returns. Offsets must be non-decreasing; one below its
// predecessor is raised to it. next is pulled lazily, for callback i+1 only
// after callback i fired, so a caller may stash the value it fires on. Only
// one callback of the train is queued at a time, yet ties order exactly as n
// back-to-back Schedule calls made now would: the train reserves its n
// sequence numbers up front.
func (e *Env) ScheduleTrain(n int, next func() Duration, fire func()) {
	t := &train{env: e, start: e.now, seq: e.seq, left: n, next: next, fire: fire}
	e.seq += uint64(max(n, 0))
	t.step = func() {
		t.fire()
		t.push()
	}
	t.push()
}

// train is one ScheduleTrain in flight: seq numbers the callback last
// queued, left counts those not yet queued.
type train struct {
	env        *Env
	start      Time
	seq        uint64
	left       int
	next       func() Duration
	fire, step func()
}

func (t *train) push() {
	if t.left <= 0 {
		return
	}
	t.seq++
	t.left--
	t.env.events.push(event{at: max(t.start.Add(t.next()), t.env.now), seq: t.seq, fn: t.step})
}

// scheduleProc queues the resumption of p at time e.Now()+d. Unlike
// Schedule, it allocates nothing: the wakeup is a plain heap entry.
func (e *Env) scheduleProc(d Duration, p *Proc) {
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, proc: p})
}

// Handoffs returns how many times the loop owner has switched into a
// process's carrier: one per dispatch that a parking process could not
// serve in place (see step). It measures the simulator's own work, not the
// modeled system's.
func (e *Env) Handoffs() uint64 { return e.handoffs }

// Stop halts the run after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Env) Stopped() bool { return e.stopped }

// NextEventTime returns the timestamp of the earliest queued event, or false
// when the queue is empty. Shard coordinators use it to compute the global
// lower-bound barrier without disturbing the queue.
func (e *Env) NextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// ScheduleAt runs fn at absolute virtual time t (clamped to the present).
// Cross-shard mailboxes use it to deliver messages stamped with an arrival
// time computed on the sending shard's clock.
func (e *Env) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// Proc is a simulated thread of control backed by a pooled coroutine.
type Proc struct {
	env    *Env
	c      *carrier
	id     int
	name   string
	why    string // blocking reason while parked, for deadlock reports
	dead   bool
	daemon bool
	killed bool
}

// killSentinel unwinds a killed process's stack during Env.Shutdown.
type killSentinel struct{}

// SetDaemon marks the process as a daemon: a run may end while daemons are
// still parked (e.g. idle thread-pool workers) without reporting deadlock.
func (p *Proc) SetDaemon(v bool) {
	if p.daemon == v {
		return
	}
	p.daemon = v
	if v {
		p.env.live--
	} else {
		p.env.live++
	}
}

// ID returns the process's unique id within its environment.
func (p *Proc) ID() int { return p.id }

// Name returns the label given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// carrier is a coroutine that runs processes one after another. next and
// stop come from iter.Pull (see newCarrier); yield is the coroutine's side of
// the switch and may only be called on the carrier itself. p and fn are the
// assigned process, nil while the carrier is idle. guarded is the guarded
// Cond the process is waiting on, nil otherwise; it lives here rather than
// on Proc, which it would push into a larger allocation size class.
type carrier struct {
	env     *Env
	p       *Proc
	fn      func(*Proc)
	guarded *Cond
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
}

// maxPooled caps the carriers Shutdown keeps for later environments: enough
// for the largest gang-of-threads run (about 1,900 live pool threads in a
// Fig 11 run) with headroom; Shutdown stops the rest.
const maxPooled = 4096

// pool holds carriers no environment is using. Carriers are reused across
// environments rather than ended, because ending a coroutine skips the race
// detector's goroutine-exit hook and leaks its race context: under -race
// that grew the cluster tests from 0.9 GB to 3.7 GB.
var pool struct {
	sync.Mutex
	idle []*carrier
}

// run is the carrier's coroutine body: it runs each assigned process to
// completion and then yields to the loop owner until a later dispatch
// brings the next process Go assigned to it. It returns only when stopped.
func (c *carrier) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.runProc()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProc runs the assigned process, unless Shutdown killed it before its
// first dispatch, and returns the carrier to its environment's idle list.
func (c *carrier) runProc() {
	p, e := c.p, c.env
	if !p.killed {
		runKillable(c.fn, p)
	}
	c.p, c.fn, c.guarded = nil, nil, nil
	p.dead = true
	if !p.daemon {
		e.live--
	}
	delete(e.procs, p)
	e.idle = append(e.idle, c)
}

// takeCarrier returns an idle carrier for e: its own most recently idled
// one, else one from the shared pool, else a new one.
func (e *Env) takeCarrier() *carrier {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	var c *carrier
	pool.Lock()
	if n := len(pool.idle); n > 0 {
		c = pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
	}
	pool.Unlock()
	if c == nil {
		return e.newCarrier()
	}
	c.env = e
	return c
}

// Go spawns a process that begins executing fn at the current virtual time.
// It may be called before Run or from process/event context during a run.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{env: e, id: e.procSeq, name: name, why: "start"}
	c := e.takeCarrier()
	c.p, c.fn = p, fn
	p.c = c
	e.live++
	e.procs[p] = struct{}{}
	e.scheduleProc(0, p)
	return p
}

// runKillable executes fn, converting the kill sentinel panic used by
// Shutdown into a clean return.
func runKillable(fn func(*Proc), p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
		}
	}()
	fn(p)
}

// Shutdown terminates all remaining processes, including daemons and
// processes that never started: each is resumed with its kill flag set, so a
// parked one unwinds through its deferred calls and one not yet started
// never runs. Their carriers then go to the shared pool for later
// environments. Call it once after Run returns; the environment must not be
// used afterwards.
func (e *Env) Shutdown() {
	e.shutdown = true
	for len(e.procs) > 0 { // a dying process's defers may spawn more
		for p := range e.procs {
			delete(e.procs, p)
			p.killed = true
			p.c.next()
		}
	}
	for _, c := range e.idle {
		c.env = nil // let the environment be collected
	}
	pool.Lock()
	keep := min(len(e.idle), maxPooled-len(pool.idle))
	pool.idle = append(pool.idle, e.idle[:keep]...)
	pool.Unlock()
	for _, c := range e.idle[keep:] {
		c.stop()
	}
	e.idle = nil
}

// runLoop drives the run on the loop owner's goroutine: it dispatches the
// next process (the one a yielding carrier handed off, else the next one
// step pops) by switching into its carrier, and returns when the run is over
// for now.
func (e *Env) runLoop() {
	for {
		q := e.handoff
		e.handoff = nil
		if q == nil {
			if q = e.step(); q == nil {
				return
			}
		}
		e.handoffs++
		q.c.next()
	}
}

// step runs queued callbacks until it pops the resumption of a live process,
// and returns that process with the clock at its wakeup time; nil when the
// run is over for now (queue empty, Stop called, or past the time limit).
// Both the loop owner and parking processes call it. A process woken on a
// guarded Cond whose condition is false again is not returned: step puts it
// back at the end of the Cond's waiters, with its park reason unchanged,
// and keeps popping.
func (e *Env) step() *Proc {
	for {
		if len(e.events) == 0 || e.stopped || (e.limit > 0 && e.events[0].at > e.limit) {
			return nil
		}
		ev := e.events.pop()
		if ev.at > e.hbNext {
			e.fireHeartbeats(ev.at)
		}
		if ev.proc == nil {
			e.now = ev.at
			ev.fn()
			continue
		}
		q := ev.proc
		if q.dead {
			continue
		}
		e.now = ev.at
		if c := q.c.guarded; c != nil {
			if c.guard.blocked() {
				c.waiters = append(c.waiters, q)
				continue
			}
			q.c.guarded = nil
		}
		q.why = ""
		return q
	}
}

// park records why the process is blocked and runs the event loop in place
// until something redispatches it. When the next event resumes p itself it
// returns at once (no coroutine switch); otherwise it hands the next process
// to the loop owner and yields until the owner dispatches p again.
func (p *Proc) park(why string) {
	e := p.env
	if e.shutdown { // a killed process blocking again from a defer
		panic(killSentinel{})
	}
	p.why = why
	q := e.step()
	if q == p {
		return
	}
	e.handoff = q
	// yield reports false only for a stopped carrier, and only idle
	// carriers are stopped; treat it as a kill all the same.
	if !p.c.yield(struct{}{}) || p.killed {
		panic(killSentinel{})
	}
}

// Sleep suspends the process for virtual duration d. Even a zero sleep is a
// scheduling point: it yields to other same-time events in deterministic
// order.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.scheduleProc(d, p)
	p.park("sleep")
}

// Yield reschedules the process at the current time, letting any other
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run executes events until the queue is empty, Stop is called, or the
// optional time limit is reached. It returns an error if live processes
// remain parked with no runnable events (deadlock).
func (e *Env) Run() error {
	e.runLoop()
	if !e.stopped && len(e.events) == 0 && e.live > 0 {
		return e.deadlockError()
	}
	return nil
}

// RunUntil executes events up to and including time t, leaving later events
// queued.
func (e *Env) RunUntil(t Time) error {
	e.limit = t
	defer func() { e.limit = 0 }()
	return e.Run()
}

// RunWindow executes events up to and including time t like RunUntil, but
// performs no deadlock check: a sharded sub-environment may legitimately go
// idle with parked processes while it waits for cross-shard messages, so the
// shard coordinator owns the global stuck check (see StuckError).
func (e *Env) RunWindow(t Time) {
	e.limit = t
	e.runLoop()
	e.limit = 0
}

// StuckError returns the deadlock report for this environment's parked
// processes, or nil when no non-daemon processes remain. Shard coordinators
// call it once every sub-environment has drained and no messages are in
// flight — the point at which parked processes really are stuck.
func (e *Env) StuckError() error {
	if e.stopped || e.live <= 0 {
		return nil
	}
	return e.deadlockError()
}

func (e *Env) deadlockError() error {
	list := make([]*Proc, 0, e.live)
	for p := range e.procs {
		if !p.dead && !p.daemon {
			list = append(list, p)
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].name != list[j].name {
			return list[i].name < list[j].name
		}
		return list[i].id < list[j].id
	})
	msg := fmt.Sprintf("sim: deadlock at %v: %d live procs, none runnable", e.now, e.live)
	for i, p := range list {
		if i >= 8 {
			msg += fmt.Sprintf("; … and %d more", len(list)-8)
			break
		}
		msg += fmt.Sprintf("; %s#%d blocked on %s", p.name, p.id, p.why)
	}
	return fmt.Errorf("%s", msg)
}

// Event is a one-shot occurrence processes can wait on. Once triggered,
// subsequent waits return immediately until Reset re-arms it.
type Event struct {
	env       *Env
	triggered bool
	waiters   []*Proc
	subs      []func()
}

// NewEvent returns an untriggered event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Trigger fires the event, scheduling all waiters to resume at the current
// time. Triggering an already-triggered event is a no-op.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, p := range ev.waiters {
		ev.env.scheduleProc(0, p)
	}
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0]
	for _, fn := range ev.subs {
		ev.env.Schedule(0, fn)
	}
	clear(ev.subs)
	ev.subs = ev.subs[:0]
}

// Reset re-arms a triggered event so it can be waited on and triggered
// again, keeping its waiter storage: a reused event costs no allocation per
// cycle. Resetting an untriggered event with waiters would strand them, so
// it panics.
func (ev *Event) Reset() {
	if len(ev.waiters) > 0 || len(ev.subs) > 0 {
		panic("sim: Reset of an event with waiters")
	}
	ev.triggered = false
}

// Subscribe registers fn to run in event context when the event triggers;
// if it already has, fn is scheduled at the current time. Unlike Wait it
// needs no process, so completion fan-out at scale costs no goroutine.
// Callbacks run after any waiters scheduled by the same Trigger.
func (ev *Event) Subscribe(fn func()) {
	if ev.triggered {
		ev.env.Schedule(0, fn)
		return
	}
	ev.subs = append(ev.subs, fn)
}

// Wait blocks p until the event is triggered.
func (ev *Event) Wait(p *Proc) {
	if ev.triggered {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.park("event")
}

// Cond is a condition variable for processes. Unlike sync.Cond it needs no
// lock: process code already runs under total mutual exclusion, so the usual
// pattern is
//
//	for !condition() { cond.Wait(p) }
type Cond struct {
	env     *Env
	waiters []*Proc
	parkWhy string // "cond:"+label, precomputed so Wait never allocates it
	// guard is the wait condition of the Semaphore or WaitGroup that owns
	// the Cond, nil for a plain one; step consults it before switching
	// into a woken waiter.
	guard guard
}

// guard is a wait condition the event loop can evaluate on a waiter's
// behalf. A waiter resumed while blocked() still holds would only re-check
// it and wait again, so step re-queues it at the back of the waiters
// instead — the same queue position its own loop would take — and no
// coroutine switch is spent on the proc.
type guard interface {
	blocked() bool
}

// NewCond returns a condition variable; label appears in deadlock reports.
func (e *Env) NewCond(label string) *Cond {
	return &Cond{env: e, parkWhy: "cond:" + label}
}

// Wait blocks p until another process calls Signal or Broadcast. Callers
// must re-check their condition in a loop: a wake-up does not imply the
// condition holds.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	if c.guard != nil {
		p.c.guarded = c
	}
	p.park(c.parkWhy)
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	// Shift rather than reslice from the front: the backing array is reused
	// across wait/signal cycles and holds no popped procs.
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.env.scheduleProc(0, p)
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.env.scheduleProc(0, p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Semaphore is a counting semaphore for processes.
//
// Release does not hand its slot to a waiter: it frees the slot and wakes
// the longest waiter, which takes the slot only if one is still free when
// it runs. A running process that acquires first wins (barging), and the
// woken waiter goes back to the end of the queue. The executor's in-flight
// kernel window is modeled this way: a gang thread that releases its slot
// and reaches its next GPU node at the same instant takes the slot again.
// The event loop re-queues such a waiter without switching into it (see
// step).
type Semaphore struct {
	cond Cond
	free int
}

// NewSemaphore returns a semaphore with n free slots.
func (e *Env) NewSemaphore(n int) *Semaphore {
	s := &Semaphore{free: n}
	s.cond = Cond{env: e, parkWhy: "cond:semaphore", guard: s}
	return s
}

func (s *Semaphore) blocked() bool { return s.free <= 0 }

// Acquire blocks p until a slot is free, then takes it.
func (s *Semaphore) Acquire(p *Proc) {
	for s.free <= 0 {
		s.cond.Wait(p)
	}
	s.free--
}

// Release frees a slot, waking one waiter.
func (s *Semaphore) Release() {
	s.free++
	s.cond.Signal()
}

// Free returns the number of free slots.
func (s *Semaphore) Free() int { return s.free }

// WaitGroup counts in-flight tasks; Wait blocks until the count reaches zero.
type WaitGroup struct {
	cond  Cond
	count int
}

// NewWaitGroup returns a wait group with count zero.
func (e *Env) NewWaitGroup() *WaitGroup {
	wg := &WaitGroup{}
	wg.cond = Cond{env: e, parkWhy: "cond:waitgroup", guard: wg}
	return wg
}

func (wg *WaitGroup) blocked() bool { return wg.count > 0 }

// Add increments the count by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the count, waking waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.cond.Broadcast()
	}
}

// Count returns the current count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.cond.Wait(p)
	}
}
