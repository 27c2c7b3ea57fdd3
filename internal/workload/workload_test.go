package workload

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestReplayCapOpsMatchTable4 replays every application trace once on a
// small machine and asserts that the capability-operation count equals the
// paper's Table 4 value exactly.
func TestReplayCapOpsMatchTable4(t *testing.T) {
	for _, tr := range trace.All() {
		tr := tr
		t.Run(tr.Name, func(t *testing.T) {
			res, err := Run(Config{Kernels: 1, Services: 1, Instances: 1, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Instances[0].CapOps
			if got != tr.WantCapOps {
				t.Fatalf("%s cap ops = %d, want %d (Table 4)", tr.Name, got, tr.WantCapOps)
			}
		})
	}
}

// TestReplaySpanning runs instances across two kernels with one service,
// forcing group-spanning sessions and exchanges.
func TestReplaySpanning(t *testing.T) {
	res, err := Run(Config{Kernels: 2, Services: 1, Instances: 2, Trace: trace.Tar()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCapOps != 2*21 {
		t.Fatalf("total cap ops = %d, want 42", res.TotalCapOps)
	}
	if res.Kernel.IKCSent == 0 {
		t.Fatal("no inter-kernel traffic despite spanning placement")
	}
}

func TestPlacementPrefersLocalService(t *testing.T) {
	cfg := Config{Kernels: 4, Services: 2, Instances: 4, Trace: trace.Find()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCapOps != 4*3 {
		t.Fatalf("cap ops = %d", res.TotalCapOps)
	}
}

func TestParallelEfficiencyDegrades(t *testing.T) {
	// More instances per kernel/service must not *increase* efficiency;
	// with heavy sharing it must drop below 1.
	cfg := Config{Kernels: 2, Services: 2, Instances: 16, Trace: trace.PostMark()}
	eff, alone, parallel, err := ParallelEfficiency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if alone == 0 || parallel == 0 {
		t.Fatal("zero runtimes")
	}
	if eff > 1.001 {
		t.Fatalf("efficiency %.3f > 1", eff)
	}
	if eff < 0.05 {
		t.Fatalf("efficiency %.3f implausibly low", eff)
	}
	if parallel < alone {
		t.Fatalf("parallel runtime %d < alone %d", parallel, alone)
	}
}

func TestMoreKernelsHelp(t *testing.T) {
	// The paper's kernel-dependence result (Fig. 8): with a fixed instance
	// count, more kernels must not hurt parallel efficiency.
	base := Config{Kernels: 1, Services: 1, Instances: 12, Trace: trace.PostMark()}
	eff1, _, _, err := ParallelEfficiency(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Kernels = 4
	base.Services = 4
	eff4, _, _, err := ParallelEfficiency(base)
	if err != nil {
		t.Fatal(err)
	}
	if eff4 < eff1 {
		t.Fatalf("efficiency fell from %.3f (1K/1S) to %.3f (4K/4S)", eff1, eff4)
	}
}

func TestSystemEfficiency(t *testing.T) {
	// Weighted by application PEs over total PEs.
	if got := SystemEfficiency(1.0, 2, 2, 12); got != 12.0/16.0 {
		t.Fatalf("system efficiency = %v", got)
	}
	if got := SystemEfficiency(0.5, 8, 8, 16); got != 0.5*16.0/32.0 {
		t.Fatalf("system efficiency = %v", got)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Kernels: 1, Services: 0, Instances: 1, Trace: trace.Tar()}); err == nil {
		t.Error("zero services accepted")
	}
}

func TestNginxRuns(t *testing.T) {
	res, err := RunNginx(NginxConfig{Kernels: 2, Services: 2, Servers: 2, Duration: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if res.RequestsPerSecond() <= 0 {
		t.Fatal("zero request rate")
	}
}

func TestNginxScalesWithServers(t *testing.T) {
	small, err := RunNginx(NginxConfig{Kernels: 2, Services: 2, Servers: 2, Duration: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunNginx(NginxConfig{Kernels: 2, Services: 2, Servers: 6, Duration: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if big.Requests <= small.Requests {
		t.Fatalf("6 servers (%d reqs) not faster than 2 (%d reqs)", big.Requests, small.Requests)
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		res, err := Run(Config{Kernels: 2, Services: 2, Instances: 4, Trace: trace.SQLite()})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Makespan), res.TotalCapOps
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", m1, c1, m2, c2)
	}
}

// TestSharedTracesStayIntact replays each shared trace (Run preloads every
// service's image through Preload) and then checks that the shared trace
// still equals a freshly generated one. The harness runs many tasks in one
// process, so a write here would corrupt every later run.
func TestSharedTracesStayIntact(t *testing.T) {
	fresh := []*trace.Trace{trace.Tar(), trace.Untar(), trace.Find(), trace.SQLite(), trace.LevelDB(), trace.PostMark()}
	for _, want := range fresh {
		tr := trace.ByName(want.Name)
		if _, err := Run(Config{Kernels: 2, Services: 2, Instances: 3, Trace: tr}); err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if tr.Name != want.Name || !reflect.DeepEqual(tr.Ops, want.Ops) ||
			!reflect.DeepEqual(tr.Dirs, want.Dirs) || !reflect.DeepEqual(tr.Files, want.Files) ||
			tr.WantCapOps != want.WantCapOps || tr.TargetRuntime != want.TargetRuntime {
			t.Errorf("%s: shared trace modified by a run", want.Name)
		}
	}
}
