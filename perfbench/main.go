package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], fullSizes, os.Stdout, os.Stderr))
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one benchmark invocation and returns the exit code: 0 with
// a result line, 1 on a correctness violation or error (no result line),
// 2 on bad arguments.
func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "capstorm", "workload: apps or capstorm")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/perfbench-trace/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for _, d := range workloads(sz) {
		if d.Name == *name {
			w = &d
		}
	}
	if w == nil || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d)\n", *name, *traced)
		return 2
	}
	host := hostInfo(*seed, *name)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(stdout, string(hostLine))

	budget := time.Duration(*seconds * float64(time.Second))
	var viol []string
	tab := table3()
	for i, want := range paperTable3 {
		if got := tab[i]; got < want*0.95 || got > want*1.05 {
			viol = append(viol, fmt.Sprintf("table 3 entry %d: %.0f cycles, paper %.0f (±5%%)", i, got, want))
		}
	}
	vals := map[string]float64{"paper_err_pct": table3Err(tab)}

	var defs []metricDef
	var tracers []*tracer
	if *traced == 0 {
		defs, tracers = endToEnd, []*tracer{nil}
	} else {
		// Untraced and traced passes alternate: the difference of their
		// run_s is the tracing overhead, and tracing must not change what
		// is simulated (measure checks every pass against the first).
		defs, tracers = perLayer, []*tracer{nil, newTracer()}
	}
	ps, hs, err := measure(*w, *seed, budget, 3, tracers...)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	untraced := hostMetrics(hs[0])
	merge(vals, ps.simMetrics(), untraced)
	if *traced == 0 {
		vals["peak_rss_mb"] = peakRSSMiB()
		// A time, rate or latency of zero means nothing was measured.
		// allocs_per_event and paper_err_pct may reach zero legitimately.
		for _, d := range defs {
			if d.Name != "allocs_per_event" && d.Name != "paper_err_pct" && vals[d.Name] == 0 {
				viol = append(viol, fmt.Sprintf("end-to-end metric %s is zero", d.Name))
			}
		}
	} else {
		t := tracers[1]
		merge(vals, layerProbes(t, stormPeak(sz, *seed)))
		vals["trace.overhead_pct"] = (hostMetrics(hs[1])["run_s"]/untraced["run_s"] - 1) * 100
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-%d.json", *name, *seed))
		}
		if err := t.write(out, host); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(t.spans), out)
	}
	viol = append(viol, ps.Violations...)
	viol = append(viol, workloadChecks(*w, ps)...)
	metrics, missing := emit(defs, vals)
	for _, m := range missing {
		viol = append(viol, "metric not measured: "+m)
	}
	if len(viol) > 0 {
		for _, v := range viol {
			fmt.Fprintln(stderr, "perfbench: correctness violation:", v)
		}
		return 1
	}
	line, err := json.Marshal(result{Correct: true, Attempted: ps.Attempted, Failed: ps.Failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workloadChecks is the part of the correctness gate that depends on the
// workload; the machine-level checks (leaks, losses, truncation,
// determinism) are in simStats and measure.
func workloadChecks(w workloadDef, ps *simStats) []string {
	var v []string
	if ps.Failed > 0 {
		v = append(v, fmt.Sprintf("%d of %d operations did not complete", ps.Failed, ps.Attempted))
	}
	if w.Name == "apps" {
		if ps.InstCapOps != ps.WantCapOps {
			v = append(v, fmt.Sprintf("apps: %d capability operations, traces want %d", ps.InstCapOps, ps.WantCapOps))
		}
		if ps.Instances != ps.Attempted {
			v = append(v, fmt.Sprintf("apps: %d of %d instances finished", ps.Instances, ps.Attempted))
		}
	}
	return v
}

func merge(dst map[string]float64, srcs ...map[string]float64) {
	for _, s := range srcs {
		for k, v := range s {
			dst[k] = v
		}
	}
}

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

// hostInfo names the hardware and build every number was taken on.
func hostInfo(seed uint64, workload string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"seed":       seed,
		"workload":   workload,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set (VmHWM), falling back
// to the memory the Go runtime obtained from the OS.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
