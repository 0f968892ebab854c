package executor

import (
	"olympian/internal/graph"
	"olympian/internal/sim"
)

// ThreadPool is the shared CPU thread pool TF-Serving fetches gang threads
// from (Algorithm 1 line 14). Threads are simulated processes, reused LIFO.
// When the pool is exhausted, submissions queue until a thread frees up —
// the "execution may be delayed" behaviour the paper notes, and the
// mechanism behind Olympian's reduced scalability for some DNNs (§4.3):
// suspended gangs hold their threads, so Olympian reaches the limit sooner.
//
// A task is a (job, node) value that every thread hands to the pool's one
// run function, so a submission allocates nothing.
type ThreadPool struct {
	env *sim.Env
	max int
	run func(p *sim.Proc, job *Job, node *graph.Node)

	idle    []*worker
	backlog []task
	total   int

	// perJob counts threads currently executing (or suspended inside) a
	// task for each job.
	perJob map[int]int

	stats PoolStats
}

// PoolStats are thread-pool counters.
type PoolStats struct {
	// Spawned is the number of worker threads ever created.
	Spawned int
	// PeakInUse is the maximum number of simultaneously busy threads.
	PeakInUse int
	// Delayed counts submissions that had to wait for a free thread.
	Delayed int
	// Completed counts finished tasks.
	Completed int
}

type task struct {
	job  *Job
	node *graph.Node
}

type worker struct {
	cond *sim.Cond
	next task // held by value; next.job == nil means none assigned
}

// NewThreadPool returns a pool that will grow up to max threads, each
// running run for the tasks submitted to it.
func NewThreadPool(env *sim.Env, max int, run func(p *sim.Proc, job *Job, node *graph.Node)) *ThreadPool {
	return &ThreadPool{env: env, max: max, run: run, perJob: make(map[int]int)}
}

// Submit schedules the pool's run function for (job, node) on a pool
// thread. If no thread is available and the pool is at its limit, the task
// is delayed until one frees up.
func (tp *ThreadPool) Submit(job *Job, node *graph.Node) {
	t := task{job: job, node: node}
	if n := len(tp.idle); n > 0 {
		w := tp.idle[n-1]
		tp.idle = tp.idle[:n-1]
		w.next = t
		w.cond.Signal()
		return
	}
	if tp.total < tp.max {
		tp.spawn(t)
		return
	}
	tp.stats.Delayed++
	tp.backlog = append(tp.backlog, t)
}

func (tp *ThreadPool) spawn(first task) {
	tp.total++
	tp.stats.Spawned++
	w := &worker{cond: tp.env.NewCond("pool-worker"), next: first}
	p := tp.env.Go("pool-worker", func(p *sim.Proc) { tp.workerLoop(p, w) })
	p.SetDaemon(true)
}

func (tp *ThreadPool) workerLoop(p *sim.Proc, w *worker) {
	for {
		for w.next.job == nil {
			w.cond.Wait(p)
		}
		t := w.next
		w.next = task{}
		id := t.job.ID
		tp.perJob[id]++
		if used := tp.InUse(); used > tp.stats.PeakInUse {
			tp.stats.PeakInUse = used
		}
		tp.run(p, t.job, t.node)
		tp.perJob[id]--
		if tp.perJob[id] == 0 {
			delete(tp.perJob, id)
		}
		tp.stats.Completed++
		if len(tp.backlog) > 0 {
			w.next = tp.backlog[0]
			tp.backlog = tp.backlog[1:]
			continue
		}
		tp.idle = append(tp.idle, w)
		// Park until the next Submit signals us.
	}
}

// InUse returns the number of threads currently executing tasks.
func (tp *ThreadPool) InUse() int { return tp.total - len(tp.idle) }

// Total returns the number of threads in existence.
func (tp *ThreadPool) Total() int { return tp.total }

// JobThreads returns how many pool threads are currently working for jobID.
func (tp *ThreadPool) JobThreads(jobID int) int { return tp.perJob[jobID] }

// Backlog returns the number of delayed submissions still waiting.
func (tp *ThreadPool) Backlog() int { return len(tp.backlog) }

// Stats returns a snapshot of pool counters.
func (tp *ThreadPool) Stats() PoolStats { return tp.stats }
