package sim

import "testing"

// TestHotPathsAllocateNothing gates the zero-allocation property that
// BenchmarkScheduleRun, BenchmarkScheduleRunHeapOnly, BenchmarkProcHandoff
// and BenchmarkWakeStorm report: once an engine's lanes have grown, pushing
// events through either lane, handing control to a sleeping proc and waking
// a storm of parked procs allocate nothing per operation.
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

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"ScheduleRun", mixed},
		{"ScheduleRunHeapOnly", heapOnly},
		{"ProcHandoff", handoff},
		{"WakeStorm", wake},
	} {
		tc.fn() // warm: grow the lanes to their steady-state size
		if got := testing.AllocsPerRun(20, tc.fn); got != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", tc.name, got)
		}
	}
}
