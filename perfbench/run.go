package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// hostSample is the host cost of one pass over a workload's machines.
// Setups holds the pass's own set-up time and those of setupReps extra
// set-ups of the same machines, which are closed without running.
type hostSample struct {
	Setups         []time.Duration
	Run, Close     time.Duration
	Allocs, Events uint64
}

// setupReps is the number of extra set-ups per pass. Set-up is short next
// to a run, so it is repeated to give its median enough samples.
const setupReps = 4

// runPass generates the workload's inputs from the seed, then builds, runs
// and closes each machine in turn, timing set-up (input generation,
// NewSystem, SpawnOn) apart from Run and Close.
func runPass(w workloadDef, seed uint64, t *tracer) (*simStats, hostSample, error) {
	var h hostSample
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	for rep := 0; rep < setupReps; rep++ {
		d, err := setupOnly(w, seed)
		if err != nil {
			return nil, h, err
		}
		h.Setups = append(h.Setups, d)
	}
	ps := newSimStats()
	runtime.GC()
	t0 := time.Now()
	gid := t.begin("generate inputs", 0)
	scripts := w.generate(seed)
	t.end(gid)
	setup := time.Since(t0)
	for i, sc := range scripts {
		if t != nil {
			t.machine = i
		}
		mid := t.begin(fmt.Sprintf("machine %d", i), 0)
		runtime.GC() // collect the previous machine's garbage outside the clock
		t0 := time.Now()
		sys, collect, err := sc.build(ps, t, mid)
		setup += time.Since(t0)
		if err != nil {
			return nil, h, fmt.Errorf("%s machine %d: %w", w.Name, i, err)
		}
		runtime.GC()
		m0 := mallocs()
		rid := t.begin("Run", mid)
		t0 = time.Now()
		if err := runMachine(sys); err != nil {
			sys.Close()
			return nil, h, fmt.Errorf("%s machine %d: %w", w.Name, i, err)
		}
		h.Run += time.Since(t0)
		t.end(rid)
		m1 := mallocs()
		h.Events += sys.Eng.Executed()
		if sys.Eng.Pending() > 0 {
			ps.violate("%s machine %d: stopped with %d events pending", w.Name, i, sys.Eng.Pending())
		}
		collect()
		m2 := mallocs()
		cid := t.begin("Close", mid)
		t0 = time.Now()
		sys.Close()
		h.Close += time.Since(t0)
		t.end(cid)
		h.Allocs += m1 - m0 + mallocs() - m2
		t.end(mid)
	}
	h.Setups = append(h.Setups, setup)
	return ps, h, nil
}

// runMachine runs a machine to completion. The engine panics when the
// event limit is exceeded; that truncation is returned as an error.
func runMachine(sys *core.System) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("truncated at %d events: %v", sys.Eng.Executed(), r)
		}
	}()
	sys.Run()
	return nil
}

// setupOnly times the set-up of a pass's machines, closing each unrun.
func setupOnly(w workloadDef, seed uint64) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	scripts := w.generate(seed)
	d := time.Since(t0)
	for i, sc := range scripts {
		runtime.GC()
		t0 := time.Now()
		sys, _, err := sc.build(newSimStats(), nil, 0)
		d += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s machine %d: %w", w.Name, i, err)
		}
		sys.Close()
	}
	return d, nil
}

// measure runs passes until the time budget is spent and every tracer
// slot has run minPasses passes. Pass i runs under tracers[i mod
// len(tracers)] (nil: untraced), so traced and untraced passes alternate
// and share the host's drift. It returns the first pass's simulated
// statistics, whose Violations collect every pass's, and the host samples
// of each slot. Every pass must simulate exactly the same thing.
func measure(w workloadDef, seed uint64, budget time.Duration, minPasses int, tracers ...*tracer) (*simStats, [][]hostSample, error) {
	var first *simStats
	var want map[string]float64
	var viol []string
	hs := make([][]hostSample, len(tracers))
	start := time.Now()
	for i := 0; len(viol) == 0 && (i < minPasses*len(tracers) || time.Since(start) < budget); i++ {
		t := tracers[i%len(tracers)]
		t.reset()
		ps, h, err := runPass(w, seed, t)
		if err != nil {
			return nil, nil, err
		}
		viol = append(viol, ps.Violations...)
		got := ps.simMetrics()
		if first == nil {
			first, want = ps, got
		} else if d := diffMetrics(want, got); d != "" {
			viol = append(viol, fmt.Sprintf("%s: pass %d simulated differently from pass 0: %s", w.Name, i, d))
		}
		hs[i%len(tracers)] = append(hs[i%len(tracers)], h)
	}
	first.Violations = viol
	return first, hs, nil
}

func diffMetrics(a, b map[string]float64) string {
	for k, v := range a {
		if b[k] != v {
			return fmt.Sprintf("%s %v != %v", k, v, b[k])
		}
	}
	return ""
}

// hostMetrics reduces the pass samples to medians.
func hostMetrics(hs []hostSample) map[string]float64 {
	var run, setup, nsEv, allocEv, simRun, simClose []float64
	for _, h := range hs {
		rc := (h.Run + h.Close).Seconds()
		run = append(run, rc)
		for _, d := range h.Setups {
			setup = append(setup, d.Seconds())
		}
		nsEv = append(nsEv, float64((h.Run+h.Close).Nanoseconds())/float64(h.Events))
		allocEv = append(allocEv, float64(h.Allocs)/float64(h.Events))
		simRun = append(simRun, h.Run.Seconds())
		simClose = append(simClose, h.Close.Seconds())
	}
	return map[string]float64{
		"run_s":            medianF(run),
		"setup_s":          medianF(setup),
		"ns_per_event":     medianF(nsEv),
		"allocs_per_event": medianF(allocEv),
		"sim.run_s":        medianF(simRun),
		"sim.close_s":      medianF(simClose),
	}
}
