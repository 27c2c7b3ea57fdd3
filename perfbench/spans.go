package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// span is one recorded interval. Host spans time the benchmark's own calls
// into a layer in host nanoseconds; simulated spans time one client
// syscall in simulated cycles. Parent links a span to the span that caused
// it; all spans of one client's requests share Client.
type span struct {
	ID, Parent int64
	Name       string
	Sim        bool
	Start, Dur int64 // host ns since the tracer started, or simulated cycles
	Machine    int
	Client     int // -1 for host spans
	SrcKernel  int
	DstKernel  int
	OK         bool
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one nil check per call, which is how untraced runs use
// it.
type tracer struct {
	t0      time.Time
	spans   []span
	next    int64
	machine int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops the recorded spans but keeps their storage, so every traced
// pass pays the same recording cost and only the last pass is written.
func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
		t.next = 0
	}
}

// begin opens a host span and returns its id; end closes it.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0)), Machine: t.machine, Client: -1, SrcKernel: -1, DstKernel: -1, OK: true})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.t0)) - s.Start
}

// simSpan records a completed simulated interval and returns its id.
func (t *tracer) simSpan(name string, parent int64, client, src, dst int, start, end sim.Time, ok bool) int64 {
	if t == nil {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Sim: true,
		Start: int64(start), Dur: int64(end - start), Machine: t.machine, Client: client,
		SrcKernel: src, DstKernel: dst, OK: ok})
	return t.next
}

// reserve allocates a span id for a simulated span recorded later (a
// client's whole script, which is the parent of its syscalls).
func (t *tracer) reserve(name string, parent int64, client, kernel int) int64 {
	if t == nil {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Sim: true,
		Machine: t.machine, Client: client, SrcKernel: kernel, DstKernel: kernel, OK: true})
	return t.next
}

func (t *tracer) finish(id int64, start, end sim.Time, ok bool) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.Start, s.Dur, s.OK = int64(start), int64(end-start), ok
}

// traceEvent is one Chrome trace-event ("X" complete event or "M"
// metadata); Perfetto and chrome://tracing open a file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON. Host spans form
// process 0 (timestamps in host µs); each machine's simulated spans form
// their own process, one thread per client, timestamps in simulated µs.
func (t *tracer) write(path string, host map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","otherData":`); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(host); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w.WriteString(`,"traceEvents":[`)
	named := map[int]bool{}
	first := true
	put := func(ev traceEvent) {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		b, _ := json.Marshal(ev) // plain structs of numbers and strings
		w.Write(b)
	}
	put(traceEvent{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "host (benchmark calls)"}})
	for _, s := range t.spans {
		args := map[string]any{"span": s.ID, "parent": s.Parent}
		ev := traceEvent{Name: s.Name, Ph: "X", Args: args}
		if !s.Sim {
			ev.Cat = "host"
			ev.Ts, ev.Dur = float64(s.Start)/1e3, float64(s.Dur)/1e3
			ev.Pid, ev.Tid = 0, s.Machine
			args["machine"] = s.Machine
		} else {
			ev.Cat = "sim"
			ev.Ts, ev.Dur = cyclesToUs(sim.Duration(s.Start)), cyclesToUs(sim.Duration(s.Dur))
			ev.Pid, ev.Tid = 1+s.Machine, s.Client
			args["client"], args["src_kernel"], args["dst_kernel"], args["ok"] = s.Client, s.SrcKernel, s.DstKernel, s.OK
			if !named[ev.Pid] {
				named[ev.Pid] = true
				put(traceEvent{Name: "process_name", Ph: "M", Pid: ev.Pid,
					Args: map[string]any{"name": fmt.Sprintf("machine %d (simulated µs at %d MHz)", s.Machine, int(core.CyclesPerMicrosecond))}})
			}
		}
		put(ev)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
