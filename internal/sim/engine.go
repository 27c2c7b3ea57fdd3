// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time in cycles. Events are ordered by
// (time, sequence number) so that runs are bit-reproducible. On top of the
// raw event queue the package offers cooperative processes (Proc):
// coroutines that the engine resumes one at a time from event handlers, which
// lets protocol code (e.g. a kernel thread performing an inter-kernel call) be
// written in a natural blocking style while the simulation stays
// deterministic.
//
// An event carries an Action, an object with a Fire method. Objects that
// already exist when the event is scheduled can be their own events: a *Proc
// is the Action that resumes it, and the dtu package's messages deliver
// themselves. Scheduling them allocates nothing. Plain closures go through
// Func, which wraps a func() without allocating. The FIFO wait queues
// (Semaphore, Queue) reuse their storage, so a warmed simulation's hot path
// allocates only the objects its model creates.
package sim

import "fmt"

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Duration is a span of virtual time, measured in cycles.
type Duration = Time

// Action is what an event does when it runs.
type Action interface{ Fire() }

// Func adapts a plain function to an Action. The conversion allocates
// nothing: a func value is pointer-shaped, so it fits the interface as is.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is one scheduled action. Events are totally ordered by (at, seq):
// time first, then scheduling order within an instant.
type event struct {
	at  Time
	seq uint64
	act Action
}

// eventLess is the queue's total order.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// use NewEngine.
//
// The pending-event store has two lanes:
//
//   - heap: a monomorphic inline 4-ary min-heap over []event, ordered by
//     (at, seq), holding events scheduled for a strictly later instant.
//     No interface boxing, no container/heap indirection.
//   - fifo: the same-instant lane. Schedule(0, ...) — the storm generated by
//     Wake, Yield and Spawn — appends here instead of touching the heap.
//     Because seq only grows, appending keeps the lane sorted by (at, seq),
//     and popping is a head-index increment.
//
// The split preserves the global (at, seq) order exactly: lane events carry
// at == now, and any heap event at the same instant was necessarily scheduled
// before time advanced to that instant (while now was smaller), so its seq is
// lower than every lane event's — the heap drains first at each instant (see
// pop). Time only advances while the lane is empty, so the lane never holds
// stale timestamps.
type Engine struct {
	now      Time
	heap     []event
	fifo     []event
	fifoHead int
	seq      uint64
	executed uint64
	limit    uint64 // safety valve: max events executed, 0 = unlimited
	killed   bool
	// allProcs registers every spawned proc so Kill can stop the live ones.
	allProcs []*Proc
	procs    int // live procs, for leak diagnostics
}

// NewEngine returns a ready-to-run engine with time at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// SetEventLimit caps the total number of events the engine may execute.
// Zero (the default) means unlimited. SetEventLimit(n) means at most n
// events: executing event n+1 panics (in Run and Step alike), which catches
// runaway simulations in tests.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// Schedule runs fn after d cycles of virtual time. It may be called from
// event handlers and from Procs; calling it after Kill is a no-op.
func (e *Engine) Schedule(d Duration, fn func()) { e.ScheduleAction(d, Func(fn)) }

// ScheduleAction fires a after d cycles of virtual time, like Schedule.
func (e *Engine) ScheduleAction(d Duration, a Action) {
	if e.killed {
		return
	}
	e.seq++
	if d == 0 {
		e.fifo = append(e.fifo, event{at: e.now, seq: e.seq, act: a})
		return
	}
	e.heapPush(event{at: e.now + d, seq: e.seq, act: a})
}

// At runs fn at absolute time t. Scheduling in the past panics: it would
// silently corrupt causality.
func (e *Engine) At(t Time, fn func()) { e.AtAction(t, Func(fn)) }

// AtAction fires a at absolute time t, like At.
func (e *Engine) AtAction(t Time, a Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.ScheduleAction(t-e.now, a)
}

// heapPush inserts ev into the 4-ary heap (sift-up with a hole, one final
// store instead of swaps).
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// heapPop removes and returns the heap minimum (sift-down with a hole).
func (e *Engine) heapPop() event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the action
	h = h[:n]
	e.heap = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			min := c
			for j := c + 1; j < end; j++ {
				if eventLess(&h[j], &h[min]) {
					min = j
				}
			}
			if !eventLess(&h[min], &last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return root
}

// popDue removes and returns the next event in (at, seq) order if it is due
// by t, choosing between the lanes once.
func (e *Engine) popDue(t Time) (event, bool) {
	if e.fifoHead < len(e.fifo) {
		// Lane events run at e.now, which is also the earliest a heap event
		// can run.
		if e.now > t {
			return event{}, false
		}
		// A heap event at the same instant was scheduled before time
		// advanced here, so its seq is lower: it wins.
		if len(e.heap) > 0 && e.heap[0].at == e.now {
			return e.heapPop(), true
		}
		ev := e.fifo[e.fifoHead]
		e.fifo[e.fifoHead].act = nil // release the action
		e.fifoHead++
		if e.fifoHead == len(e.fifo) {
			// Lane drained: rewind so the backing array is reused.
			e.fifo = e.fifo[:0]
			e.fifoHead = 0
		}
		return ev, true
	}
	if len(e.heap) == 0 || e.heap[0].at > t {
		return event{}, false
	}
	return e.heapPop(), true
}

// runEvent enforces causality and the event limit, advances virtual time to
// ev.at, and executes ev. It is the single execution path shared by RunUntil
// and Step, so both do identical accounting.
func (e *Engine) runEvent(ev event) {
	if ev.at < e.now {
		panic("sim: event queue went backwards")
	}
	if e.limit != 0 && e.executed >= e.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded (possible livelock)", e.limit))
	}
	e.now = ev.at
	ev.act.Fire()
	e.executed++
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= t, advancing virtual time.
// It returns when the queue is empty or the next event is beyond t.
func (e *Engine) RunUntil(t Time) {
	for {
		ev, ok := e.popDue(t)
		if !ok {
			return
		}
		e.runEvent(ev)
	}
}

// Step executes exactly one event if available and reports whether it did.
// It shares RunUntil's causality check and event-limit accounting, and is a
// no-op after Kill.
func (e *Engine) Step() bool {
	if e.killed {
		return false
	}
	ev, ok := e.popDue(^Time(0))
	if !ok {
		return false
	}
	e.runEvent(ev)
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.fifo) - e.fifoHead }

// drain empties both queues, releasing the event actions but keeping the
// backing arrays so a pooled engine reuses its slabs.
func (e *Engine) drain() {
	clear(e.heap)
	e.heap = e.heap[:0]
	clear(e.fifo)
	e.fifo = e.fifo[:0]
	e.fifoHead = 0
}

// Kill terminates the simulation: parked Procs unwind and exit, and further
// Schedule calls are ignored. Call it when a simulation is finished, so that
// procs still parked (e.g. server loops) do not leak their coroutines.
//
// Kill stops every live proc in turn, running each parked body's defers to
// completion; procs that were spawned but never stepped are dropped without
// running. LiveProcs is therefore zero afterwards. Kill must be called from
// the engine side (between events or after Run), never from within a Proc
// body.
func (e *Engine) Kill() {
	if e.killed {
		return
	}
	e.killed = true
	// Drain remaining events so parked procs that were about to be resumed
	// are not left half-woken.
	e.drain()
	for i, p := range e.allProcs {
		if p.stop != nil {
			p.stop()
		}
		e.allProcs[i] = nil
	}
	e.allProcs = e.allProcs[:0]
	e.procs = 0 // stop drops never-started procs without their decrement
}

// LiveProcs returns the number of procs that have been spawned and have not
// yet exited. Useful to detect leaks in tests.
func (e *Engine) LiveProcs() int { return e.procs }
