package sim

import "sync"

// Reset returns a used engine to the state of a fresh NewEngine while keeping
// the event-queue backing arrays, so a recycled engine schedules into
// already-grown slabs instead of re-growing them from scratch.
//
// Reset first Kills the engine (idempotent), so any still-parked procs
// unwind; afterwards the engine is live again: time, sequence and event
// counters are zero, the event limit is cleared, and Schedule/Spawn work as
// on a new engine.
//
// Like Kill, Reset must be called from the engine side, never from within a
// Proc body.
func (e *Engine) Reset() {
	e.Kill()
	e.drain() // queues are already empty; keeps the invariant explicit
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.limit = 0
	e.killed = false
}

// Pool recycles Engines across simulation runs. Short simulations (one
// experiment of a harness sweep) otherwise pay engine setup and event-slab
// growth on every run; a pooled engine keeps its grown []event backing
// arrays across tasks.
//
// Get returns a ready-to-run engine (recycled or new); Put Resets the engine
// — unwinding any procs still parked in it — and shelves it for the next
// Get. A pooled engine must always go through Reset (Put does this) before
// reuse; handing out a non-Reset engine would leak virtual time and seq
// state between experiments and break determinism.
//
// Pool is safe for concurrent use by multiple goroutines (the harness
// workers); the Engines themselves remain single-threaded.
type Pool struct {
	mu   sync.Mutex
	free []*Engine
}

// NewPool returns an empty engine pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a fresh-state engine, recycling a shelved one if available.
func (p *Pool) Get() *Engine {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return e
	}
	p.mu.Unlock()
	return NewEngine()
}

// Put Resets e and shelves it for reuse. A nil engine is ignored.
func (p *Pool) Put(e *Engine) {
	if e == nil {
		return
	}
	e.Reset()
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
}

// Idle returns the number of engines currently shelved in the pool.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
