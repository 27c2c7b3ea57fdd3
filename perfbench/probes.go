package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/m3"
	"repro/internal/noc"
	"repro/internal/sim"
)

// --- Table 3: the paper's capability-operation latencies -----------------

// paperTable3 holds the published cycle counts: SemperOS exchange and
// revoke, group-local and spanning, and the M3 baseline's exchange and
// revoke.
var paperTable3 = [6]float64{3597, 6484, 1997, 3876, 3250, 1423}

// table3 measures the six Table 3 numbers in the paper's order: app B
// obtains a capability from app A, then A revokes it.
func table3() [6]float64 {
	pair := func(sys *core.System, peA, peB int) (exchange, revoke sim.Duration) {
		defer sys.Close()
		ready := sim.NewFuture[cap.Selector](sys.Eng)
		obtained := sim.NewFuture[struct{}](sys.Eng)
		va, err := sys.SpawnOn(peA, "A", func(v *core.VPE, p *sim.Proc) {
			sel, err := v.AllocMem(p, 4096, dtu.PermRW)
			must(err)
			ready.Complete(sel)
			obtained.Wait(p)
			t0 := p.Now()
			must(v.Revoke(p, sel))
			revoke = p.Now() - t0
		})
		must(err)
		_, err = sys.SpawnOn(peB, "B", func(v *core.VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			t0 := p.Now()
			_, err := v.ObtainFrom(p, va.ID, sel)
			must(err)
			exchange = p.Now() - t0
			obtained.Complete(struct{}{})
		})
		must(err)
		sys.Run()
		return exchange, revoke
	}
	two := func() *core.System { return core.MustNew(core.Config{Kernels: 2, UserPEs: 4}) }
	// PEs 2 and 3 belong to kernel 0, PE 4 to kernel 1.
	el, rl := pair(two(), 2, 3)
	es, rs := pair(two(), 2, 4)
	em, rm := pair(m3.MustNew(m3.Config{UserPEs: 4}).System, 1, 2)
	return [6]float64{float64(el), float64(es), float64(rl), float64(rs), float64(em), float64(rm)}
}

// table3Err returns the largest deviation from the paper in percent.
func table3Err(got [6]float64) float64 {
	worst := 0.0
	for i, want := range paperTable3 {
		worst = math.Max(worst, math.Abs(got[i]-want)/want*100)
	}
	return worst
}

// --- layer probes ---------------------------------------------------------

// probe times fn, which performs ops operations, over several repetitions
// and returns the median host ns and the median heap allocations per
// operation. prep, if not nil, runs untimed before each repetition.
func probe(t *tracer, name string, ops int, prep, fn func()) (nsPerOp, allocsPerOp float64) {
	id := t.begin("probe "+name, 0)
	defer t.end(id)
	var ns, allocs []float64
	var ms runtime.MemStats
	for rep := 0; rep < 5; rep++ {
		if prep != nil {
			prep()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(ms.Mallocs-m0)/float64(ops))
	}
	return medianF(ns), medianF(allocs)
}

// layerProbes measures each layer's public primitive in isolation. pop is
// the capability population the cap and ddl probes run at.
func layerProbes(t *tracer, pop int) map[string]float64 {
	v := map[string]float64{}
	nop := func() {}

	// sim: raw event throughput with mixed delays, and the proc handoff
	// (one Sleep: schedule, park, resume).
	const events = 1 << 18
	eng := sim.NewEngine()
	v["sim.event_ns"], _ = probe(t, "sim.Schedule", events, nil, func() {
		rng := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < events; i += 1024 {
			for j := 0; j < 1024; j++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				eng.Schedule(sim.Duration(rng%64), nop)
			}
			eng.Run()
		}
	})
	const handoffs = 1 << 17
	v["sim.handoff_ns"], v["sim.handoff_allocs"] = probe(t, "sim.Proc handoff", handoffs, nil, func() {
		e := sim.NewEngine()
		e.Spawn("handoff", func(p *sim.Proc) {
			for i := 0; i < handoffs; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
		e.Kill()
	})

	// noc: one message through the mesh, delivery included.
	const msgs = 1 << 17
	v["noc.send_ns"], _ = probe(t, "noc.Send", msgs, nil, func() {
		e := sim.NewEngine()
		n := noc.New(e, noc.DefaultConfig(64))
		for i := 0; i < msgs; i += 1024 {
			for j := 0; j < 1024; j++ {
				n.Send(j%64, (j*7+3)%64, 64, nop)
			}
			e.Run()
		}
	})

	// dtu: one send with its delivery and the credit-returning ack.
	v["dtu.send_ns"], _ = probe(t, "dtu.Send", msgs, nil, func() {
		e := sim.NewEngine()
		f := dtu.NewFabric(e, noc.New(e, noc.DefaultConfig(3)))
		kern, src, dst := f.Add(0, 0), f.Add(1, 0), f.Add(2, 0)
		must(src.ConfigureSend(kern, 0, 2, 0, msgs, 1))
		must(dst.ConfigureRecv(kern, 0, 0, func(m *dtu.Message) { dst.Ack(m) }))
		for i := 0; i < msgs; i += 1024 {
			for j := 0; j < 1024; j++ {
				must(src.Send(0, nil, 64, -1, 0))
			}
			e.Run()
		}
	})

	// ddl and cap at the storm's peak population.
	keys := make([]ddl.Key, pop)
	for i := range keys {
		keys[i] = ddl.NewKey(1+i%1000, i%4096, ddl.TypeMem, uint64(i/4096)+1)
	}
	v["ddl.keymap_ns"], v["ddl.keymap_allocs"] = probe(t, "ddl.KeyMap", 3*pop, nil, func() {
		var m ddl.KeyMap[uint32]
		for i, k := range keys {
			m.Put(k, uint32(i))
		}
		for _, k := range keys {
			if _, ok := m.Get(k); !ok {
				panic("perfbench: key map lost a key")
			}
		}
		for _, k := range keys {
			m.Delete(k)
		}
	})
	obj := &cap.MemObject{PE: 1, Size: 4096, Perm: dtu.PermRW}
	fill := func(s *cap.Store) {
		for i, k := range keys {
			s.Insert(&cap.Capability{Key: k, Owner: i % 4096, Sel: s.AllocSel(i % 4096), Object: obj, Perm: dtu.PermRW})
		}
	}
	var store *cap.Store
	empty := func() { store = cap.NewStore() }
	full := func() { empty(); fill(store) }
	v["cap.insert_ns"], _ = probe(t, "cap.Store.Insert", pop, empty, func() { fill(store) })
	v["cap.lookup_ns"], _ = probe(t, "cap.Store.Lookup", pop, full, func() {
		for _, k := range keys {
			if store.Lookup(k) == nil {
				panic("perfbench: store lost a capability")
			}
		}
	})
	v["cap.remove_ns"], _ = probe(t, "cap.Store.Remove", pop, full, func() {
		for _, k := range keys {
			store.Remove(k)
		}
	})
	v["cap.bytes_per_cap"] = heapPerCap(fill, pop)

	// core: host cost of one operation on an otherwise idle 2-kernel
	// machine.
	v["core.exchange_local_host_us"] = hostOp(t, "exchange local", false, false)
	v["core.exchange_span_host_us"] = hostOp(t, "exchange spanning", true, false)
	v["core.revoke_host_us"] = hostOp(t, "revoke spanning", true, true)
	return v
}

// heapPerCap returns the live heap a store holds per capability.
func heapPerCap(fill func(*cap.Store), pop int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := cap.NewStore()
	fill(s)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(pop)
}

// hostOp returns the median host µs of one capability operation: B obtains
// A's capability (in A's group or in the other one), or A revokes a
// capability B obtained. The host clock is read inside the simulation,
// around the blocking syscall, so everything the engine runs for the
// operation is charged to it.
func hostOp(t *tracer, name string, spanning, revoke bool) float64 {
	const ops = 2000
	id := t.begin("probe core "+name, 0)
	defer t.end(id)
	var samples []float64
	for rep := 0; rep < 5; rep++ {
		sys := core.MustNew(core.Config{Kernels: 2, UserPEs: 4})
		peB := 3
		if spanning {
			peB = 4
		}
		var host time.Duration
		sels := sim.NewQueue[cap.Selector](sys.Eng)
		acks := sim.NewQueue[struct{}](sys.Eng)
		va, err := sys.SpawnOn(2, "A", func(v *core.VPE, p *sim.Proc) {
			for i := 0; i < ops; i++ {
				sel, err := v.AllocMem(p, 4096, dtu.PermRW)
				must(err)
				sels.Push(sel)
				acks.Pop(p)
				if revoke {
					t0 := time.Now()
					must(v.Revoke(p, sel))
					host += time.Since(t0)
				}
			}
		})
		must(err)
		_, err = sys.SpawnOn(peB, "B", func(v *core.VPE, p *sim.Proc) {
			for i := 0; i < ops; i++ {
				sel := sels.Pop(p)
				t0 := time.Now()
				_, err := v.ObtainFrom(p, va.ID, sel)
				must(err)
				if !revoke {
					host += time.Since(t0)
				}
				acks.Push(struct{}{})
			}
		})
		must(err)
		sys.Run()
		sys.Close()
		samples = append(samples, float64(host.Nanoseconds())/1e3/ops)
	}
	return medianF(samples)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
