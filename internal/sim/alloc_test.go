package sim

import "testing"

// TestHotPathsAllocateNothing gates the zero-allocation property that
// BenchmarkScheduleRun, BenchmarkScheduleRunHeapOnly, BenchmarkProcHandoff
// and BenchmarkWakeStorm report: once an engine's lanes have grown, pushing
// events through either lane, handing control to a sleeping proc and waking
// a storm of parked procs allocate nothing per operation. Neither do the
// FIFO wait queues once warm: procs cycling through a contended Semaphore,
// and two procs passing values back and forth through Queues.
func TestHotPathsAllocateNothing(t *testing.T) {
	const batch = 256
	nop := func() {}

	sched := func(delay func(i int) Duration) func() {
		e := NewEngine()
		return func() {
			for i := 0; i < batch; i++ {
				e.Schedule(delay(i), nop)
			}
			e.Run()
		}
	}
	mixed := sched(func(i int) Duration { return Duration(i % 8) })
	heapOnly := sched(func(i int) Duration { return 1 + Duration(i%8) })

	handoffEng := NewEngine()
	defer handoffEng.Kill()
	handoffEng.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	handoff := func() { handoffEng.RunUntil(handoffEng.Now() + batch) }

	stormEng := NewEngine()
	defer stormEng.Kill()
	storm := make([]*Proc, 64)
	for i := range storm {
		storm[i] = stormEng.Spawn("storm", func(p *Proc) {
			for {
				p.Park()
			}
		})
	}
	stormEng.Run() // every proc parks once
	wake := func() {
		for _, p := range storm {
			p.Wake()
		}
		stormEng.Run()
	}

	// Four procs contend for one unit; the waiter queue never drains, so
	// its head index has to slide the live waiters down, not regrow.
	semEng := NewEngine()
	defer semEng.Kill()
	sem := NewSemaphore(semEng, 1)
	for i := 0; i < 4; i++ {
		semEng.Spawn("sem", func(p *Proc) {
			for {
				sem.Acquire(p)
				p.Sleep(1)
				sem.Release()
				p.Yield()
			}
		})
	}
	semCycle := func() { semEng.RunUntil(semEng.Now() + batch) }

	// Ping-pong: each round trip pushes and pops once on either queue, and
	// each Pop parks its proc until the other side pushes.
	qEng := NewEngine()
	defer qEng.Kill()
	ping, pong := NewQueue[int](qEng), NewQueue[int](qEng)
	qEng.Spawn("ping", func(p *Proc) {
		for i := 0; ; i++ {
			ping.Push(i)
			pong.Pop(p)
			p.Sleep(1)
		}
	})
	qEng.Spawn("pong", func(p *Proc) {
		for {
			pong.Push(ping.Pop(p))
		}
	})
	pingPong := func() { qEng.RunUntil(qEng.Now() + batch) }

	// A Queue with a standing backlog never drains, so popping must not
	// leave its backing array to grow behind the head.
	var backlog Queue[int]
	for i := 0; i < 3; i++ {
		backlog.Push(i)
	}
	cycleBacklog := func() {
		for i := 0; i < batch; i++ {
			backlog.Push(i)
			backlog.TryPop()
		}
	}

	// A future with one waiter allocates only itself: the waiter is held
	// inline.
	futEng := NewEngine()
	defer futEng.Kill()
	var fut *Future[int]
	waiter := futEng.Spawn("waiter", func(p *Proc) {
		for {
			p.Park()
			fut.Wait(p)
		}
	})
	futEng.Run()
	futureWait := func() {
		fut = NewFuture[int](futEng)
		waiter.Wake()
		futEng.Run()
		fut.Complete(1)
		futEng.Run()
	}

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"ScheduleRun", mixed},
		{"ScheduleRunHeapOnly", heapOnly},
		{"ProcHandoff", handoff},
		{"WakeStorm", wake},
		{"SemaphoreContended", semCycle},
		{"QueuePingPong", pingPong},
		{"QueueBacklog", cycleBacklog},
	} {
		tc.fn() // warm: grow the lanes to their steady-state size
		if got := testing.AllocsPerRun(20, tc.fn); got != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", tc.name, got)
		}
	}
	futureWait()
	if got := testing.AllocsPerRun(20, futureWait); got != 1 {
		t.Errorf("FutureSingleWaiter: %.1f allocs per run, want 1 (the Future)", got)
	}
}
