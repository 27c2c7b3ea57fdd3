package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestKillManyParkedProcs: Kill unwinds hundreds of parked procs, and the
// live-proc counter is exact afterwards. Run with -race.
func TestKillManyParkedProcs(t *testing.T) {
	const n = 500
	e := NewEngine()
	for i := 0; i < n; i++ {
		e.Spawn("parked", func(p *Proc) {
			p.Park() // never woken; unwinds on Kill
			t.Error("parked proc resumed unexpectedly")
		})
	}
	e.Run()
	if got := e.LiveProcs(); got != n {
		t.Fatalf("live procs = %d, want %d before Kill", got, n)
	}
	e.Kill()
	// Kill has stopped every proc, so the counter is exact here.
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
	// Idempotent, and further runs are no-ops.
	e.Kill()
	e.Run()
}

// TestKillBeforeRun kills an engine whose procs never got their first
// handoff: the spawn events are drained, the bodies never run, and the
// counter must settle.
func TestKillBeforeRun(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Spawn("unstarted", func(p *Proc) {
			t.Error("proc body ran despite Kill before Run")
		})
	}
	e.Kill()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
}

// TestKillWithReparkingDefer: a proc whose defer parks again (a cleanup
// Sleep during unwind) must not hang Kill: once stopped, every park
// re-panics instead of waiting for a handoff that will never come.
func TestKillWithReparkingDefer(t *testing.T) {
	e := NewEngine()
	e.Spawn("cleanup", func(p *Proc) {
		defer p.Sleep(1) // runs during the killed{} unwind
		p.Park()
		t.Error("parked proc resumed unexpectedly")
	})
	e.Run()
	e.Kill() // must return
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
}

// TestManyEnginesConcurrently drives independent engines from independent
// goroutines — the usage pattern of the parallel bench harness — and checks
// determinism across them under -race.
func TestManyEnginesConcurrently(t *testing.T) {
	run := func() Time {
		e := NewEngine()
		for i := 0; i < 20; i++ {
			d := Duration(i * 3)
			e.Spawn("w", func(p *Proc) {
				p.Sleep(d)
				p.Sleep(7)
			})
		}
		e.Run()
		now := e.Now()
		e.Kill()
		return now
	}
	want := run()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := run(); got != want {
					t.Errorf("final time = %d, want %d", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestProcPanicPropagatesToEngineSide: a real panic inside a proc body is
// re-raised on the goroutine driving the simulation (recoverable, e.g. by
// the bench harness) instead of crashing the process from the proc's own
// coroutine.
func TestProcPanicPropagatesToEngineSide(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the proc panic to surface on the engine side")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), `proc "bad" panicked: boom`) {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if got := e.LiveProcs(); got != 0 {
			t.Errorf("live procs = %d, want 0 after fault", got)
		}
		e.Kill()
	}()
	e.Run()
	t.Fatal("Run returned without panicking")
}

// TestKillLeaksNoGoroutines: each proc's coroutine holds a goroutine until
// the body exits, and LiveProcs is only a counter, so a Kill or Reset that
// forgot to stop a suspended coroutine would pass every other test. Parked
// procs, procs spawned but never stepped and procs whose defer parks again
// must all release their goroutines, on every engine.
func TestKillLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := NewPool()
	engines := make([]*Engine, 4)
	for i := range engines {
		e := pool.Get()
		engines[i] = e
		for j := 0; j < 8; j++ {
			e.Spawn("parked", func(p *Proc) { p.Park() })
			e.Spawn("cleanup", func(p *Proc) {
				defer p.Sleep(1)
				p.Park()
			})
		}
		e.Run()
		for j := 0; j < 8; j++ {
			e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
		}
	}
	if got := runtime.NumGoroutine(); got < base+len(engines)*24 {
		t.Fatalf("%d goroutines with %d procs suspended, baseline %d", got, len(engines)*24, base)
	}
	engines[0].Kill()
	engines[1].Reset()
	pool.Put(engines[2])
	engines[3].Kill()
	engines[3].Reset()
	for _, e := range engines {
		if got := e.LiveProcs(); got != 0 {
			t.Errorf("live procs = %d, want 0", got)
		}
	}
	// A stopped coroutine's goroutine exits during the switch back, so the
	// count settles at once; the deadline only absorbs runtime noise.
	for deadline := time.Now().Add(5 * time.Second); ; {
		got := runtime.NumGoroutine()
		if got <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Kill/Reset, baseline %d", got, base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
