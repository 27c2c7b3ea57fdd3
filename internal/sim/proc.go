package sim

import (
	"fmt"
	"sync/atomic"
)

// Proc is a cooperative simulation process: a goroutine that runs under
// strict handoff with the engine. At any instant at most one goroutine (the
// engine or exactly one proc) executes, so simulations remain deterministic
// while protocol code can block naturally via Sleep, Park, or Future.Wait.
//
// Procs must only interact with the engine (Schedule, Wake, ...) from within
// their own body or from event handlers; the package is not safe for use
// from foreign OS threads.
//
// The handoff uses plain sends on capacity-1 channels, not selects: because
// of the strict alternation (the engine only resumes a proc that is parked,
// and a proc only parks while the engine waits for it), every send has a
// waiting receiver or a free buffer slot, so no shutdown case is needed in
// the hot path — this keeps the per-event cost to two channel operations.
// Kill-time unwinding is driven from the engine side instead: Kill wakes
// every live proc via its resume channel, and waitResume checks the killed
// flag after every wakeup.
type Proc struct {
	eng  *Engine
	name string
	// fault carries a panic out of the proc goroutine to the engine side,
	// where step re-raises it on the goroutine driving the simulation (and
	// therefore recoverable by callers such as the bench harness).
	fault  error
	resume chan struct{} // capacity 1: engine -> proc "go"
	parked chan struct{} // capacity 1: proc -> engine "back to you"
	// stepFn is p.step bound once at Spawn. Taking the method value inline
	// (e.Schedule(d, p.step)) would allocate a fresh closure on every
	// Sleep/Wake/Yield; binding it once makes the handoff allocation-free.
	stepFn func()
	// dead is atomic: it is set on the proc goroutine while unwinding, which
	// on Engine.Kill happens concurrently across all parked procs.
	dead atomic.Bool
}

// killed is the panic value used to unwind a proc when its engine is killed.
type killed struct{}

// Spawn creates a proc running fn, starting at the current virtual time
// (after already-queued events at this timestamp). The name is used in
// diagnostics only. Spawning on a killed engine returns an already-dead proc
// whose body never runs.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}, 1),
		parked: make(chan struct{}, 1),
	}
	p.stepFn = p.step
	if e.killed {
		p.dead.Store(true)
		return p
	}
	e.allProcs = append(e.allProcs, p)
	e.procs.Add(1)
	e.unwound.Add(1)
	// The goroutine starts immediately but blocks in waitResume until the
	// scheduled handoff below (or until Kill wakes it to unwind, even if
	// that handoff never runs because the engine was killed first).
	go p.top(fn)
	e.Schedule(0, p.stepFn)
	return p
}

// top is the proc goroutine body: wait for the first handoff, run fn,
// then hand control back for the last time.
func (p *Proc) top(fn func(p *Proc)) {
	defer func() {
		p.dead.Store(true)
		p.eng.procs.Add(-1)
		defer p.eng.unwound.Done()
		if r := recover(); r != nil {
			if _, ok := r.(killed); ok {
				// Engine was killed: exit silently. Nobody is waiting in
				// step() anymore, so do not hand back.
				return
			}
			// Real panic in simulation code: hand it to the engine side,
			// which re-raises it on the goroutine driving the simulation
			// — recoverable by callers (e.g. the bench harness captures it
			// as a failed experiment) — instead of crashing the process from
			// this goroutine. A real panic implies the proc was running,
			// so an engine-side step() is blocked on parked.
			p.fault = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
		}
		p.parked <- struct{}{}
	}()
	p.waitResume()
	fn(p)
}

// step transfers control to the proc and blocks until it parks or exits.
// It must be called from the engine side (an event handler). Events cannot
// run after Kill (the queues are drained and Schedule is a no-op), so the
// proc on the other end is always parked-or-dead, never unwinding.
func (p *Proc) step() {
	if p.dead.Load() {
		return
	}
	p.resume <- struct{}{}
	<-p.parked
	if f := p.fault; f != nil {
		p.fault = nil
		panic(f)
	}
}

// waitResume blocks the proc goroutine until the engine hands control over,
// unwinding instead if the wakeup came from Kill.
func (p *Proc) waitResume() {
	<-p.resume
	if p.eng.killed {
		panic(killed{})
	}
}

// park hands control back to the engine and blocks until resumed. On a
// killed engine it unwinds instead: nobody is in step() to receive the
// parked token, so blocking would deadlock Kill. This path is reachable
// when a proc defer parks again (e.g. a cleanup Sleep) while the proc is
// already unwinding.
func (p *Proc) park() {
	if p.eng.killed {
		panic(killed{})
	}
	p.parked <- struct{}{}
	p.waitResume()
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep blocks the proc for d cycles of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.eng.Schedule(d, p.stepFn)
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
	p.eng.Schedule(0, p.stepFn)
}

// WakeAfter schedules the proc to resume after d cycles.
func (p *Proc) WakeAfter(d Duration) {
	p.eng.Schedule(d, p.stepFn)
}
