// Conservative-lookahead sharded execution.
//
// A Shards value partitions one logical simulation into n sub-environments
// ("shards"), each with a private event heap and virtual clock. Shards only
// influence each other through Send, whose delivery delay is clamped to a
// minimum Lookahead L. That bound makes windowed execution safe:
//
//	t      := min over shards of the next queued event time
//	window := [t, t+L)
//
// Every event executed this window carries a timestamp in [t, t+L), so any
// message it sends arrives at or after t+L — strictly outside the window.
// Shards therefore cannot affect each other inside a window, and the
// coordinator runs each shard's window to its end in shard-index order. At
// the barrier it drains all outboxes in one deterministic order — (arrival
// time, source shard, per-source sequence) — schedules the messages on their
// destination heaps, and opens the next window at the new global minimum.
// The schedule of every shard is a pure function of the initial state plus
// this drain order, so the sharded engine and the single-heap reference
// engine produce bit-identical runs.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// DefaultLookahead is the fallback minimum cross-shard latency. 50µs is far
// below any modeled network hop, so it constrains nothing while still giving
// windows wide enough to batch useful work.
const DefaultLookahead = 50 * time.Microsecond

// ShardsConfig configures a sharded simulation.
type ShardsConfig struct {
	// N is the number of shards. Each gets its own Env (or a view of one
	// shared Env when SingleHeap is set).
	N int
	// Lookahead is the minimum cross-shard message latency L; Send clamps
	// shorter delays up to it. Zero selects DefaultLookahead.
	Lookahead Duration
	// Seed seeds shard i's environment with Seed + i*envSeedStride.
	Seed int64
	// SingleHeap runs every shard on one shared event heap — the reference
	// engine for differential testing. Windows, barriers, and mailbox drain
	// order are identical to the sharded engine; only the execution order
	// inside a window collapses onto one heap.
	SingleHeap bool
}

// envSeedStride separates per-shard environment RNG streams. Model stacks
// that need engine-independent draws get their own stream from their owner
// (see serving.NewServer); the stride only keeps accidental env.Rand use
// from colliding across shards.
const envSeedStride = 0x9E3779B9

// shardMsg is one cross-shard message awaiting barrier delivery.
type shardMsg struct {
	at   Time
	to   int
	from int
	seq  uint64
	fn   func()
}

// Shards coordinates n sub-environments under conservative lookahead.
type Shards struct {
	envs      []*Env
	heaps     []*Env // the distinct environments: envs[:1] under SingleHeap
	lookahead Duration

	outbox  [][]shardMsg // per-source, drained at barriers
	outSeq  []uint64
	scratch []shardMsg
	ran     bool
}

// NewShards builds a shard set from cfg.
func NewShards(cfg ShardsConfig) *Shards {
	if cfg.N <= 0 {
		panic("sim: NewShards needs at least one shard")
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = DefaultLookahead
	}
	s := &Shards{
		lookahead: cfg.Lookahead,
		envs:      make([]*Env, cfg.N),
		outbox:    make([][]shardMsg, cfg.N),
		outSeq:    make([]uint64, cfg.N),
	}
	if cfg.SingleHeap {
		shared := NewEnv(cfg.Seed)
		for i := range s.envs {
			s.envs[i] = shared
		}
		s.heaps = s.envs[:1]
	} else {
		for i := range s.envs {
			s.envs[i] = NewEnv(cfg.Seed + int64(i)*envSeedStride)
		}
		s.heaps = s.envs
	}
	return s
}

// Env returns shard i's environment. Under SingleHeap all shards share one.
func (s *Shards) Env(i int) *Env { return s.envs[i] }

// Horizon returns the latest virtual time any shard has reached. Use it (not
// a single shard's clock) as the elapsed-time denominator for rates: shards
// stop wherever their last event left them.
func (s *Shards) Horizon() Time {
	max := s.envs[0].Now()
	for _, e := range s.envs[1:] {
		if t := e.Now(); t > max {
			max = t
		}
	}
	return max
}

// Send delivers fn on shard to's heap at from's current time plus d, clamped
// to at least the lookahead. It must be called from shard from's execution
// context (process or event callback). Messages queue in a per-source outbox
// and are drained at the next barrier in (arrival time, source, sequence)
// order, so delivery does not depend on which shard ran first.
func (s *Shards) Send(from, to int, d Duration, fn func()) {
	if d < s.lookahead {
		d = s.lookahead
	}
	s.outSeq[from]++
	s.outbox[from] = append(s.outbox[from], shardMsg{
		at:   s.envs[from].Now().Add(d),
		to:   to,
		from: from,
		seq:  s.outSeq[from],
		fn:   fn,
	})
}

// deliver drains every outbox onto the destination heaps in deterministic
// order. Only the coordinator calls it, between windows.
func (s *Shards) deliver() {
	batch := s.scratch[:0]
	for i := range s.outbox {
		batch = append(batch, s.outbox[i]...)
		for j := range s.outbox[i] {
			s.outbox[i][j] = shardMsg{} // release closure references
		}
		s.outbox[i] = s.outbox[i][:0]
	}
	slices.SortFunc(batch, mailOrder)
	for _, m := range batch {
		s.envs[m.to].ScheduleAt(m.at, m.fn)
	}
	s.scratch = batch[:0]
}

// mailOrder is the barrier delivery order: (arrival time, source shard,
// per-source sequence), a strict total order, so any sort yields the same
// sequence.
func mailOrder(a, b shardMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Run executes the simulation to completion: windows advance until every
// heap is empty and no messages are pending, or any shard calls Stop. Each
// window runs every heap up to its end, in shard-index order. It returns a
// deadlock error if parked non-daemon processes remain with nothing left to
// run them.
func (s *Shards) Run() error {
	if s.ran {
		return fmt.Errorf("sim: Shards.Run called twice")
	}
	s.ran = true
	for {
		s.deliver()
		var t Time
		ok := false
		for _, e := range s.heaps {
			if e.Stopped() {
				return nil
			}
			if at, hit := e.NextEventTime(); hit && (!ok || at < t) {
				t, ok = at, true
			}
		}
		if !ok {
			break
		}
		// RunWindow's limit is inclusive; the window [t, t+L) excludes t+L.
		limit := t.Add(s.lookahead) - 1
		for _, e := range s.heaps {
			e.RunWindow(limit) // returns at once when nothing is due
		}
	}
	for _, e := range s.heaps {
		if err := e.StuckError(); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown terminates remaining processes on every shard. Call once after
// Run; the shards must not be used afterwards.
func (s *Shards) Shutdown() {
	for _, e := range s.heaps {
		e.Shutdown()
	}
}
