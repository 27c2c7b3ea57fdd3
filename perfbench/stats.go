package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simStats gathers everything simulated in one pass over a workload's
// machines. All of it is a pure function of the seed, so two passes must
// produce identical metrics from it.
type simStats struct {
	Machines    int
	Events      uint64
	ParkedProcs int
	Makespan    sim.Duration // summed over machines
	CapOps      uint64

	// Client operations and those that did not return OK.
	Attempted, Failed int

	CapLat []sim.Duration            // every capability-op latency
	Lat    map[string][]sim.Duration // by latencyKinds kind
	AppRun []sim.Duration            // runtime of each client or instance

	Kernel   []core.KernelStats // per machine
	Net      noc.Stats
	DTU      dtu.Stats
	LivePeak int
	// Busy over kernels × makespan, summed over machines.
	BusyCycles, KernelCycles float64

	Instances  int
	WantCapOps uint64
	InstCapOps uint64
	// TraceEnd holds, per trace name, the latest instance end of each
	// machine.
	TraceEnd map[string][]sim.Duration

	Violations []string
}

func newSimStats() *simStats {
	return &simStats{Lat: map[string][]sim.Duration{}, TraceEnd: map[string][]sim.Duration{}}
}

func (s *simStats) violate(format string, args ...any) {
	s.Violations = append(s.Violations, fmt.Sprintf(format, args...))
}

// machineDone folds the layer counters of a drained machine into s and
// runs the machine-level correctness checks. It runs after Run and before
// Close, while the kernels' state is still intact.
func (s *simStats) machineDone(sys *core.System, makespan sim.Duration, t *tracer, parent int64) {
	s.Machines++
	s.Events += sys.Eng.Executed()
	s.ParkedProcs += sys.Eng.LiveProcs()
	s.Makespan += makespan
	st := sys.TotalStats()
	s.Kernel = append(s.Kernel, st)
	s.BusyCycles += float64(st.Busy)
	s.KernelCycles += float64(sys.Kernels()) * float64(makespan)

	ns := sys.Net.Stats()
	s.Net.Messages += ns.Messages
	s.Net.Bytes += ns.Bytes
	s.Net.HopsSum += ns.HopsSum
	s.Net.Lost += ns.Lost
	var lost uint64
	for pe := 0; pe < sys.Net.Nodes(); pe++ {
		d := sys.Fab.DTU(pe)
		if d == nil {
			continue
		}
		ds := d.Stats()
		s.DTU.Sent += ds.Sent
		s.DTU.Received += ds.Received
		s.DTU.Lost += ds.Lost
		lost += ds.Lost
	}

	m := s.Machines - 1
	if ns.Lost != 0 || lost != 0 {
		s.violate("machine %d: %d NoC and %d DTU messages lost on a lossless fabric", m, ns.Lost, lost)
	}
	id := t.begin("CheckLeaks", parent)
	// No kernel is excused: no workload crashes one.
	leaks := sys.CheckLeaks()
	t.end(id)
	if len(leaks) > 0 {
		s.violate("machine %d: %d leaked entries, first: %s", m, len(leaks), leaks[0])
	}
}

// sampleLive samples the capability population of a machine: Σ Store.Len
// over its kernels, remembering the largest value seen.
func (s *simStats) sampleLive(sys *core.System) {
	n := 0
	for k := 0; k < sys.Kernels(); k++ {
		n += sys.Kernel(k).Store().Len()
	}
	s.LivePeak = max(s.LivePeak, n)
}

// record notes one completed client operation.
func (s *simStats) record(kind string, d sim.Duration) {
	s.CapLat = append(s.CapLat, d)
	if kind != "" {
		s.Lat[kind] = append(s.Lat[kind], d)
	}
}

func (s *simStats) kernelSum() core.KernelStats {
	var t core.KernelStats
	for _, k := range s.Kernel {
		t.Syscalls += k.Syscalls
		t.IKCSent += k.IKCSent
		t.IKCRepSent += k.IKCRepSent
		t.Sessions += k.Sessions
		t.CapsCreated += k.CapsCreated
		t.CapsDeleted += k.CapsDeleted
	}
	return t
}

// simMetrics derives every simulated metric (end to end and per layer)
// from a pass. Two passes of one seed must return equal maps.
func (s *simStats) simMetrics() map[string]float64 {
	v := map[string]float64{}
	ms := cyclesToMs(s.Makespan)
	v["sim_makespan_ms"] = ms
	v["capops_per_sim_s"] = ratio(float64(s.CapOps), ms/1000)
	v["capop_p50_us"] = cyclesToUs(quantile(s.CapLat, 0.50))
	v["capop_p99_us"] = cyclesToUs(quantile(s.CapLat, 0.99))
	v["app_p50_ms"] = cyclesToMs(quantile(s.AppRun, 0.50))
	v["app_p99_ms"] = cyclesToMs(quantile(s.AppRun, 0.99))
	v["capop.samples"] = float64(len(s.CapLat))
	v["app.samples"] = float64(len(s.AppRun))

	v["sim.events"] = float64(s.Events)
	v["sim.parked_procs"] = float64(s.ParkedProcs)
	v["noc.msgs"] = float64(s.Net.Messages)
	v["noc.bytes"] = float64(s.Net.Bytes)
	v["noc.hops_per_msg"] = ratio(float64(s.Net.HopsSum), float64(s.Net.Messages))
	v["noc.lost"] = float64(s.Net.Lost)
	v["dtu.sent"] = float64(s.DTU.Sent)
	v["dtu.received"] = float64(s.DTU.Received)
	v["dtu.lost"] = float64(s.DTU.Lost)

	k := s.kernelSum()
	v["cap.created"] = float64(k.CapsCreated)
	v["cap.deleted"] = float64(k.CapsDeleted)
	v["cap.live_peak"] = float64(s.LivePeak)
	v["core.syscalls"] = float64(k.Syscalls)
	v["core.ikc_req"] = float64(k.IKCSent)
	v["core.ikc_rep"] = float64(k.IKCRepSent)
	v["core.busy_frac"] = ratio(s.BusyCycles, s.KernelCycles)
	for _, kind := range latencyKinds {
		v["core."+kind+"_p50_us"] = cyclesToUs(quantile(s.Lat[kind], 0.50))
		v["core."+kind+"_p99_us"] = cyclesToUs(quantile(s.Lat[kind], 0.99))
	}
	v["m3fs.sessions"] = float64(k.Sessions)
	v["workload.instances"] = float64(s.Instances)
	v["workload.capops"] = float64(s.InstCapOps)
	for _, tr := range trace.All() {
		ends := s.TraceEnd[tr.Name]
		var sum sim.Duration
		for _, e := range ends {
			sum += e
		}
		if len(ends) > 0 {
			sum /= sim.Duration(len(ends))
		}
		v["workload.makespan_ms."+tr.Name] = cyclesToMs(sum)
	}
	return v
}
