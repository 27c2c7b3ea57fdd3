//go:build go1.23

// iter.Pull needs go1.23. The build constraint raises this file's language
// version without bumping go.mod, which the perfbench module pins at go1.22.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperative simulation process: a coroutine (iter.Pull) that
// the engine resumes from an event handler and that runs until it parks
// again. At any instant at most one of the engine and its procs executes, so
// simulations remain deterministic while protocol code can block naturally
// via Sleep, Park, or Future.Wait.
//
// Procs must only interact with the engine (Schedule, Wake, ...) from within
// their own body or from event handlers; the package is not safe for use
// from foreign OS threads.
type Proc struct {
	eng  *Engine
	name string
	// next resumes the body until it parks or returns; stop unwinds a
	// suspended body (and drops a never-started one). yield is the body's
	// side of the switch: it returns false once stop has been called. All
	// three are nil once the body has exited, and for a proc spawned on a
	// killed engine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// killed is the panic value used to unwind a proc when its engine is killed.
type killed struct{}

// Spawn creates a proc running fn, starting at the current virtual time
// (after already-queued events at this timestamp). The name is used in
// diagnostics only. Spawning on a killed engine returns an already-dead proc
// whose body never runs.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	if e.killed {
		return p
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Release the coroutine, and with it fn and its captures: the
			// engine keeps exited procs listed until Kill.
			p.next, p.stop, p.yield = nil, nil, nil
			e.procs--
			// A panic while Kill unwinds the proc (killed{} or one from a
			// defer) is dropped. iter.Pull re-raises any other in next(), on
			// the goroutine driving the simulation, where callers such as
			// the bench harness can recover it.
			if r := recover(); r != nil && !e.killed {
				panic(fmt.Errorf("sim: proc %q panicked: %v", p.name, r))
			}
		}()
		fn(p)
	})
	e.allProcs = append(e.allProcs, p)
	e.procs++
	e.ScheduleAction(0, p)
	return p
}

// Fire resumes the proc and returns when it parks or exits. It makes *Proc
// the Action that Spawn, Sleep and Wake schedule, so a handoff allocates
// nothing. Only the engine may call it: resuming a proc that is not due
// desynchronizes the handoff.
func (p *Proc) Fire() {
	if p.next != nil {
		p.next()
	}
}

// park hands control back to the engine until the next step. Once Kill has
// stopped the proc, yield returns false and park unwinds the body instead,
// also when a defer parks again (e.g. a cleanup Sleep) during that unwind.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep blocks the proc for d cycles of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.eng.ScheduleAction(d, p)
	p.park()
}

// Yield parks the proc and schedules it to resume at the same timestamp,
// after other events already queued for this instant. This is a preemption
// point in the sense of the SemperOS kernel design.
func (p *Proc) Yield() { p.Sleep(0) }

// Park blocks the proc until some event handler calls Wake. A proc parked
// this way and never woken leaks until Engine.Kill.
func (p *Proc) Park() { p.park() }

// Wake schedules the proc to resume at the current virtual time. It must be
// called from the engine side or from another proc; waking an unparked or
// dead proc is a bug and will desynchronize the handoff protocol, so callers
// must track parked state (Future and Semaphore do this for you).
func (p *Proc) Wake() {
	p.eng.ScheduleAction(0, p)
}

// WakeAfter schedules the proc to resume after d cycles.
func (p *Proc) WakeAfter(d Duration) {
	p.eng.ScheduleAction(d, p)
}
