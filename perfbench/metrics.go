package main

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none. Per-layer counts fixed by the workload (capabilities created,
// instances) are marked "lower" like the costs: only a change to the
// workload moves them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics of an untraced run. Every one is reported on
// every workload and is never zero there (see doc.go for what each means on
// each workload). Host metrics come first, simulated ones after.
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_event", "ns", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"sim_makespan_ms", "sim_ms", "lower", 0.15},
	{"capops_per_sim_s", "ops/sim_s", "higher", 0.15},
	{"capop_p50_us", "sim_us", "lower", 0.15},
	{"capop_p99_us", "sim_us", "lower", 0.15},
	{"app_p50_ms", "sim_ms", "lower", 0.15},
	{"app_p99_ms", "sim_ms", "lower", 0.15},
	{"paper_err_pct", "%", "lower", 0.1},
}

// latencyKinds are the capability-operation kinds whose simulated latency
// is reported per layer, in the order of the per-layer metric list.
var latencyKinds = []string{"derive", "obtain_local", "obtain_span", "delegate", "revoke_local", "revoke_span"}

// perLayer lists the metrics of a traced run, grouped by the layer they
// measure (DESIGN.md's layer map).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	defs := []metricDef{
		m("sim.events", "count"),
		m("sim.parked_procs", "count"),
		m("sim.run_s", "s"),
		m("sim.close_s", "s"),
		m("sim.event_ns", "ns"),
		m("sim.handoff_ns", "ns"),
		m("sim.handoff_allocs", "count"),
		m("noc.msgs", "count"),
		m("noc.bytes", "count"),
		m("noc.hops_per_msg", "count"),
		m("noc.lost", "count"),
		m("noc.send_ns", "ns"),
		m("dtu.sent", "count"),
		m("dtu.received", "count"),
		m("dtu.lost", "count"),
		m("dtu.send_ns", "ns"),
		m("ddl.keymap_ns", "ns"),
		m("ddl.keymap_allocs", "count"),
		m("cap.created", "count"),
		m("cap.deleted", "count"),
		m("cap.live_peak", "count"),
		m("cap.bytes_per_cap", "B"),
		m("cap.insert_ns", "ns"),
		m("cap.lookup_ns", "ns"),
		m("cap.remove_ns", "ns"),
		m("core.syscalls", "count"),
		m("core.ikc_req", "count"),
		m("core.ikc_rep", "count"),
		m("core.busy_frac", "ratio"),
	}
	for _, k := range latencyKinds {
		defs = append(defs, m("core."+k+"_p50_us", "sim_us"), m("core."+k+"_p99_us", "sim_us"))
	}
	defs = append(defs,
		m("core.exchange_local_host_us", "us"),
		m("core.exchange_span_host_us", "us"),
		m("core.revoke_host_us", "us"),
		m("m3fs.sessions", "count"),
		m("workload.instances", "count"),
		m("workload.capops", "count"),
	)
	for _, tr := range trace.All() {
		defs = append(defs, m("workload.makespan_ms."+tr.Name, "sim_ms"))
	}
	return append(defs, m("capop.samples", "count"), m("app.samples", "count"), m("trace.overhead_pct", "%"))
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit fills the result object for the given definitions from vals. A
// definition with no value is an error of the benchmark, reported by the
// caller as a missing metric.
func emit(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// quantile returns the q-quantile (nearest rank) of xs; 0 for none. xs is
// sorted in place.
func quantile(xs []sim.Duration, q float64) sim.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// medianF returns the median of a host measurement series.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cyclesToUs(d sim.Duration) float64 { return float64(d) / core.CyclesPerMicrosecond }

func cyclesToMs(d sim.Duration) float64 { return float64(d) / (core.CyclesPerMicrosecond * 1000) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
