package sim

// Future is a single-assignment cell that procs can wait on. It is the
// building block for call/reply protocols: the caller parks on Wait and the
// reply handler fulfills the future via Complete, waking the caller.
type Future[T any] struct {
	done bool
	val  T
	// waiter is the first waiter, held inline so that the common
	// single-waiter Wait allocates nothing; later waiters go to more.
	waiter    *Proc
	more      []*Proc
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
	if f.waiter != nil {
		f.waiter.Wake()
		f.waiter = nil
	}
	for _, w := range f.more {
		w.Wake()
	}
	f.more = nil
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
		if f.waiter == nil {
			f.waiter = p
		} else {
			f.more = append(f.more, p)
		}
		p.park()
		// A spurious wake is impossible under the handoff discipline, but a
		// proc can appear in the waiters list only once per park, so loop.
	}
	return f.val
}

// fifo is a FIFO that reuses its backing array. pop advances a head index
// and rewinds to the front when the queue drains; a push into a full array
// whose popped prefix is at least half of it slides the live elements down
// instead of growing. Popped slots are zeroed, so they pin no dead procs or
// messages.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the head element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Semaphore is a counting semaphore with FIFO wakeup, used to model bounded
// resources such as in-flight message slots or DTU credits.
type Semaphore struct {
	count   int
	waiters fifo[*Proc]
}

// NewSemaphore returns a semaphore with the given initial count for procs of
// engine e.
func NewSemaphore(e *Engine, count int) *Semaphore {
	return &Semaphore{count: count}
}

// Count returns the currently available units.
func (s *Semaphore) Count() int { return s.count }

// Waiting returns the number of procs parked in Acquire.
func (s *Semaphore) Waiting() int { return s.waiters.len() }

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
		s.waiters.push(p)
		p.park()
	}
	s.count--
}

// Release returns one unit and wakes the longest-waiting proc, if any.
func (s *Semaphore) Release() {
	s.count++
	if s.waiters.len() > 0 {
		s.waiters.pop().Wake()
	}
}

// Queue is an unbounded FIFO that procs can block on. It is the simulation
// analogue of a Go channel: Push never blocks, Pop parks until an element is
// available. The zero value is an empty queue.
type Queue[T any] struct {
	items   fifo[T]
	waiters fifo[*Proc]
}

// NewQueue returns an empty queue for procs of engine e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.items.len() }

// Waiters returns the number of procs parked in Pop (idle consumers).
func (q *Queue[T]) Waiters() int { return q.waiters.len() }

// Push appends an element and wakes the longest-waiting consumer, if any.
// It may be called from event handlers or procs.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	if q.waiters.len() > 0 {
		q.waiters.pop().Wake()
	}
}

// TryPop removes and returns the head element if present.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Pop removes and returns the head element, parking the proc until one is
// available.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.park()
	}
	return q.items.pop()
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
		clear(wg.waiters)
		wg.waiters = wg.waiters[:0]
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
