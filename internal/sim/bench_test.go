package sim

import "testing"

// Micro-benchmarks for the hot simulation paths. The acceptance bar of the
// event-queue rebuild: the Sleep/Wake handoff path allocates nothing per
// simulated event (it used to pay a method-value closure plus an
// interface-boxed heap push per Schedule), and schedule+run throughput is
// bounded by the inline 4-ary heap, not container/heap indirection.
//
// Run with:
//
//	go test -bench . -benchmem ./internal/sim

// BenchmarkScheduleRun measures raw event-queue throughput: schedule a
// batch with mixed delays (delay 0 exercises the same-instant lane), then
// drain it. One op = one event through the queue.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := uint64(0x9E3779B97F4A7C15)
	nop := func() {}
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		for i := 0; i < batch; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			e.Schedule(Duration(rng%64), nop)
		}
		e.Run()
	}
}

// BenchmarkScheduleRunHeapOnly is the pure-heap variant (no delay-0
// events), isolating the 4-ary heap from the FIFO lane.
func BenchmarkScheduleRunHeapOnly(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := uint64(0x9E3779B97F4A7C15)
	nop := func() {}
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		for i := 0; i < batch; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			e.Schedule(1+Duration(rng%64), nop)
		}
		e.Run()
	}
}

// BenchmarkProcHandoff measures the Sleep/Wake path: one op is one full
// proc handoff (Schedule of the proc itself, park, resume). This is the
// path every simulated syscall, IKC and DTU transfer rides on.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Kill()
}

// BenchmarkWakeStorm measures the same-instant lane under the pattern that
// motivated it: many parked procs woken at one timestamp, FIFO.
func BenchmarkWakeStorm(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const nProcs = 64
	n := b.N
	procs := make([]*Proc, nProcs)
	rounds := make([]int, nProcs)
	for i := 0; i < nProcs; i++ {
		i := i
		procs[i] = e.Spawn("storm", func(p *Proc) {
			for rounds[i] > 0 {
				rounds[i]--
				p.Park()
			}
		})
	}
	perProc := n/nProcs + 1
	for i := range rounds {
		rounds[i] = perProc
	}
	var tick func()
	left := perProc
	tick = func() {
		for _, p := range procs {
			p.Wake()
		}
		left--
		if left > 0 {
			e.Schedule(1, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
	b.StopTimer()
	e.Kill()
}

// BenchmarkPoolReuse measures the per-experiment engine cost the harness
// pays: one op is one short simulated task on a pool-recycled engine
// (Get, schedule/run a small workload with procs, Put).
func BenchmarkPoolReuse(b *testing.B) {
	b.ReportAllocs()
	pool := NewPool()
	nop := func() {}
	for i := 0; i < b.N; i++ {
		e := pool.Get()
		for j := 0; j < 32; j++ {
			e.Schedule(Duration(j%8), nop)
		}
		e.Spawn("task", func(p *Proc) {
			for k := 0; k < 8; k++ {
				p.Sleep(2)
			}
		})
		e.Run()
		pool.Put(e)
	}
}

// BenchmarkEngineFresh is BenchmarkPoolReuse without the pool: a brand-new
// engine per task, for comparison.
func BenchmarkEngineFresh(b *testing.B) {
	b.ReportAllocs()
	nop := func() {}
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 32; j++ {
			e.Schedule(Duration(j%8), nop)
		}
		e.Spawn("task", func(p *Proc) {
			for k := 0; k < 8; k++ {
				p.Sleep(2)
			}
		})
		e.Run()
		e.Kill()
	}
}
