package sim

// Future is a single-assignment cell that procs can wait on. It is the
// building block for call/reply protocols: the caller parks on Wait and the
// reply handler fulfills the future via Complete, waking the caller.
type Future[T any] struct {
	done      bool
	val       T
	waiters   []*Proc
	callbacks []func(T)
}

// NewFuture returns an unfulfilled future for procs of engine e.
func NewFuture[T any](e *Engine) *Future[T] {
	return &Future[T]{}
}

// Complete fulfills the future with val and wakes all waiters. Completing a
// future twice panics: replies must be unique.
func (f *Future[T]) Complete(val T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = val
	for _, w := range f.waiters {
		w.Wake()
	}
	f.waiters = nil
	for _, cb := range f.callbacks {
		cb(val)
	}
	f.callbacks = nil
}

// CompleteFrom is Complete(val); the completing proc p is not needed.
func (f *Future[T]) CompleteFrom(p *Proc, val T) { f.Complete(val) }

// OnComplete registers fn to run when the future is fulfilled (immediately
// if it already is). Callbacks run in the completer's context, so they must
// not block; use Wait from procs instead.
func (f *Future[T]) OnComplete(fn func(T)) {
	if f.done {
		fn(f.val)
		return
	}
	f.callbacks = append(f.callbacks, fn)
}

// Done reports whether the future has been fulfilled.
func (f *Future[T]) Done() bool { return f.done }

// Wait parks the proc until the future is fulfilled and returns the value.
// If the future is already fulfilled it returns immediately.
func (f *Future[T]) Wait(p *Proc) T {
	if p == nil {
		// Wait(nil) is the post-run accessor for a future known complete.
		if !f.done {
			panic("sim: Wait(nil) on unfulfilled future")
		}
		return f.val
	}
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.park()
		// A spurious wake is impossible under the handoff discipline, but a
		// proc can appear in the waiters list only once per park, so loop.
	}
	return f.val
}

// Semaphore is a counting semaphore with FIFO wakeup, used to model bounded
// resources such as in-flight message slots or DTU credits.
type Semaphore struct {
	eng     *Engine
	count   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(e *Engine, count int) *Semaphore {
	return &Semaphore{eng: e, count: count}
}

// Count returns the currently available units.
func (s *Semaphore) Count() int { return s.count }

// Waiting returns the number of procs parked in Acquire.
func (s *Semaphore) Waiting() int { return len(s.waiters) }

// TryAcquire takes one unit if available and reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// Acquire takes one unit, parking the proc until one is available.
// Wakeup order is FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.waiters = append(s.waiters, p)
		p.park()
	}
	s.count--
}

// Release returns one unit and wakes the longest-waiting proc, if any.
func (s *Semaphore) Release() {
	s.count++
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.Wake()
	}
}

// Queue is an unbounded FIFO that procs can block on. It is the simulation
// analogue of a Go channel: Push never blocks, Pop parks until an element is
// available.
type Queue[T any] struct {
	eng     *Engine
	items   []T
	waiters []*Proc
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) }

// Waiters returns the number of procs parked in Pop (idle consumers).
func (q *Queue[T]) Waiters() int { return len(q.waiters) }

// Push appends an element and wakes the longest-waiting consumer, if any.
// It may be called from event handlers or procs.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		w.Wake()
	}
}

// TryPop removes and returns the head element if present.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Pop removes and returns the head element, parking the proc until one is
// available.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// WaitGroup tracks a set of outstanding operations; procs can park until the
// count drops to zero. It mirrors sync.WaitGroup for simulated time; the
// zero value is ready to use.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add increments the outstanding count by n (n may be negative; Done is
// Add(-1)). When the count reaches zero all waiters are woken.
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			w.Wake()
		}
		wg.waiters = nil
	}
}

// Done decrements the outstanding count.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current outstanding count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks the proc until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.park()
	}
}
