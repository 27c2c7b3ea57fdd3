package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// testSizes shrinks every workload to a few kernels so a pass takes
// milliseconds.
var testSizes = sizes{
	AppsMachines: 1,
	Apps:         appsShape{Kernels: 4, Instances: 24},
	Storm: stormShape{
		Kernels: 4, ClientsPerKernel: 2,
		Chains: [2]int{1, 2}, Depth: [2]int{2, 4}, Fanout: [2]int{2, 6},
		Exchanges: [2]int{2, 6}, SpanLo: 0.2, SpanHi: 0.5,
	},
}

func TestSameSeedSameScripts(t *testing.T) {
	for _, w := range workloads(fullSizes) {
		if a, b := w.generate(7), w.generate(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", w.Name)
		}
	}
}

func TestOtherSeedOtherScripts(t *testing.T) {
	for _, w := range workloads(fullSizes) {
		if a, b := w.generate(1), w.generate(2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.Name)
		}
	}
}

// TestSameSeedSameSimulation runs every workload twice on the same seed
// and requires byte-identical simulated metrics.
func TestSameSeedSameSimulation(t *testing.T) {
	for _, w := range workloads(testSizes) {
		var out [2][]byte
		for i := range out {
			ps, _, err := runPass(w, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ps.Violations) > 0 {
				t.Fatalf("%s: %v", w.Name, ps.Violations)
			}
			out[i], _ = json.Marshal(ps.simMetrics())
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("%s: simulated metrics differ between runs of one seed:\n%s\n%s", w.Name, out[0], out[1])
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("invalid metric %q unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads(fullSizes) {
		listed = append(listed, w.Name+": "+w.Why)
	}
	var got []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(got, listed) {
		t.Errorf("BENCHMARK.json workloads %q, code lists %q", got, listed)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code")
	}
}

// runOut runs one benchmark invocation and returns its parsed result line.
func runOut(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, testSizes, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 || !strings.Contains(lines[0], `"cpu"`) || !strings.Contains(lines[0], `"commit"`) {
		t.Errorf("no host line before the result: %q", lines[0])
	}
	return r
}

func TestEndToEndOnEveryWorkload(t *testing.T) {
	for _, w := range workloads(testSizes) {
		r := runOut(t, "--workload", w.Name, "--seconds", "0")
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: result %+v", w.Name, r)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(r.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || m.Value == 0 || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v", w.Name, d.Name, m)
			}
		}
	}
}

func TestPerLayerAndSpanFile(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	r := runOut(t, "--workload", "capstorm", "--seconds", "0", "--trace", "1", "--trace-out", spans)
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"NewSystem", "SpawnOn", "Run", "Close", "CheckLeaks", "client", "derive", "probe cap.Store.Insert"} {
		if !names[want] {
			t.Errorf("span file has no %q span", want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, testSizes, &out, &errOut); code != 2 || strings.Contains(out.String(), "correct") {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
}

// TestEventLimitIsAnError checks that a machine stopped by the engine's
// event limit is reported as truncated rather than crashing the benchmark.
func TestEventLimitIsAnError(t *testing.T) {
	sc := workloads(testSizes)[1].generate(1)[0]
	sys, _, err := sc.build(newSimStats(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.SetEventLimit(100)
	if err := runMachine(sys); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("run past the event limit: %v", err)
	}
	sys.Close()
}

// TestAppsMatchesWorkloadRun pins the apps machine to workload.Run: with
// every instance replaying one trace, the benchmark's own assembly and
// timed replay must simulate exactly what workload.Run does.
func TestAppsMatchesWorkloadRun(t *testing.T) {
	tr := trace.Tar()
	const kernels, instances = 4, 16
	want, err := workload.Run(workload.Config{Kernels: kernels, Services: kernels, Instances: instances, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sc := appsScript{Shape: appsShape{Kernels: kernels, Instances: instances}}
	for i := 0; i < instances; i++ {
		sc.Traces = append(sc.Traces, tr.Name)
	}
	ps := newSimStats()
	sys, collect, err := sc.build(ps, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	collect()
	sys.Close()
	if ps.Makespan != want.Makespan || ps.InstCapOps != want.TotalCapOps || len(ps.Violations) > 0 {
		t.Errorf("makespan %d capops %d %v; workload.Run: %d, %d", ps.Makespan, ps.InstCapOps, ps.Violations, want.Makespan, want.TotalCapOps)
	}
}
