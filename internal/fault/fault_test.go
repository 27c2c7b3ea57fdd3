package fault

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// inspectSequence replays n messages round-robin over the kernel links of a
// 4-kernel machine and records every verdict.
func inspectSequence(in *Injector, n int) []noc.Verdict {
	out := make([]noc.Verdict, 0, n)
	for i := 0; i < n; i++ {
		src := i % 4
		dst := (i + 1 + i%3) % 4
		out = append(out, in.Inspect(sim.Time(100*i), src, dst, 64))
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.1, Dup: 0.05, Jitter: 300}
	a := inspectSequence(NewInjector(plan, 4), 4096)
	b := inspectSequence(NewInjector(plan, 4), 4096)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identical injectors: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInjectorSeedDecorrelates(t *testing.T) {
	a := inspectSequence(NewInjector(Plan{Seed: 1, Drop: 0.5}, 4), 4096)
	b := inspectSequence(NewInjector(Plan{Seed: 2, Drop: 0.5}, 4), 4096)
	same := 0
	for i := range a {
		if a[i].Drop == b[i].Drop {
			same++
		}
	}
	// Independent fair coins agree about half the time; identical streams
	// would agree always.
	if same == len(a) {
		t.Fatalf("seeds 1 and 2 produced identical drop sequences")
	}
	if same < len(a)*35/100 || same > len(a)*65/100 {
		t.Fatalf("drop agreement %d/%d outside the plausible band for independent draws", same, len(a))
	}
}

func TestInjectorRates(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Drop: 0.2, Dup: 0.1}, 4)
	n := 20000
	for i := 0; i < n; i++ {
		in.Inspect(0, 0, 1, 64)
	}
	st := in.Stats()
	if st.Inspected != uint64(n) {
		t.Fatalf("Inspected = %d, want %d", st.Inspected, n)
	}
	// ±15% bands around the binomial means — far beyond 5 sigma at n=20000,
	// so a healthy PRNG never trips them.
	checkRate := func(name string, got uint64, p float64) {
		mean := p * float64(n)
		lo, hi := uint64(mean*0.85), uint64(mean*1.15)
		if got < lo || got > hi {
			t.Errorf("%s = %d, want within [%d, %d] (p=%v, n=%d)", name, got, lo, hi, p, n)
		}
	}
	checkRate("Dropped", st.Dropped, 0.2)
	// Dup draws only happen on non-dropped messages: effective rate 0.8*0.1.
	checkRate("Duplicated", st.Duplicated, 0.08)
}

func TestInjectorScope(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Drop: 1}, 2)
	cases := []struct {
		src, dst int
		faulted  bool
	}{
		{0, 1, true},
		{1, 0, true},
		{0, 0, false}, // self
		{0, 5, false}, // user PE destination
		{5, 0, false}, // user PE source
		{6, 7, false}, // user PE both
	}
	for _, c := range cases {
		v := in.Inspect(0, c.src, c.dst, 64)
		if v.Drop != c.faulted {
			t.Errorf("Inspect(%d->%d).Drop = %v, want %v", c.src, c.dst, v.Drop, c.faulted)
		}
	}
	if got := in.Stats().Inspected; got != 2 {
		t.Fatalf("Inspected = %d, want 2 (only kernel links count)", got)
	}
}

// TestUserLinksNeverFaulted: whatever the plan — every kernel-link message
// dropped and duplicated, jitter, a stalled and a crashed kernel — a message
// with a user PE at either end passes untouched and unseen. core relies on
// this: a VPE's syscall frame and consent queries travel these links and
// must arrive exactly once.
func TestUserLinksNeverFaulted(t *testing.T) {
	const kernels, pes = 4, 12
	in := NewInjector(Plan{
		Seed: 11, Drop: 1, Dup: 1, Jitter: 500,
		Kernels: []KernelFault{
			{Kernel: 1, StallAt: 0, StallFor: 1 << 20},
			{Kernel: 2, CrashAt: 1, RecoverAt: 1 << 20},
		},
	}, kernels)
	for now := sim.Time(0); now < 4000; now += 1000 {
		for src := 0; src < pes; src++ {
			for dst := 0; dst < pes; dst++ {
				if src < kernels && dst < kernels {
					continue
				}
				if v := in.Inspect(now, src, dst, 64); v != (noc.Verdict{}) {
					t.Fatalf("Inspect(%d, %d->%d) = %+v, want the zero verdict on a user-PE link", now, src, dst, v)
				}
			}
		}
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("stats %+v after user-PE traffic only, want all zero", st)
	}
	if v := in.Inspect(0, 0, 3, 64); !v.Drop {
		t.Fatalf("kernel link 0->3 not dropped: the plan is not in force")
	}
}

// TestInjectorScopeCountersIndependent verifies out-of-scope traffic never
// shifts the kernel-link fault sequence: a machine with extra user-PE
// chatter sees the same verdicts on the kernel links.
func TestInjectorScopeCountersIndependent(t *testing.T) {
	plan := Plan{Seed: 9, Drop: 0.3, Dup: 0.1, Jitter: 100}
	a := NewInjector(plan, 2)
	b := NewInjector(plan, 2)
	for i := 0; i < 2048; i++ {
		va := a.Inspect(sim.Time(i), 0, 1, 64)
		b.Inspect(sim.Time(i), 7, 3, 64) // user-PE noise, out of scope
		vb := b.Inspect(sim.Time(i), 0, 1, 64)
		if va != vb {
			t.Fatalf("message %d: kernel-link verdict shifted by out-of-scope traffic: %+v vs %+v", i, va, vb)
		}
	}
}

func TestLinkRuleOverride(t *testing.T) {
	plan := Plan{
		Seed: 5, Drop: 1,
		Links: []LinkRule{
			{Src: 0, Dst: 1, Drop: 0}, // lossless exception
			{Src: -1, Dst: 2, Drop: 1},
		},
	}
	in := NewInjector(plan, 4)
	if v := in.Inspect(0, 0, 1, 64); v.Drop {
		t.Fatalf("link rule 0->1 should make the link lossless")
	}
	if v := in.Inspect(0, 3, 2, 64); !v.Drop {
		t.Fatalf("wildcard rule ->2 should drop")
	}
	if v := in.Inspect(0, 1, 3, 64); !v.Drop {
		t.Fatalf("unmatched link should fall back to the plan default (drop=1)")
	}
}

func TestKernelCrash(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Kernels: []KernelFault{{Kernel: 1, CrashAt: 1000}}}, 4)
	if v := in.Inspect(999, 0, 1, 64); v.Drop {
		t.Fatalf("message before CrashAt must pass")
	}
	// Both directions blackhole from CrashAt on.
	if v := in.Inspect(1000, 0, 1, 64); !v.Drop {
		t.Fatalf("message to crashed kernel must vanish")
	}
	if v := in.Inspect(1500, 1, 2, 64); !v.Drop {
		t.Fatalf("message from crashed kernel must vanish")
	}
	if v := in.Inspect(1500, 0, 2, 64); v.Drop {
		t.Fatalf("links between live kernels stay up")
	}
	if got := in.Stats().Blackholed; got != 2 {
		t.Fatalf("Blackholed = %d, want 2", got)
	}
}

// TestKernelCrashRecovery: a RecoverAt bounds the blackhole window — traffic
// resumes in both directions the cycle the kernel recovers.
func TestKernelCrashRecovery(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Kernels: []KernelFault{{Kernel: 1, CrashAt: 1000, RecoverAt: 2000}}}, 4)
	if v := in.Inspect(999, 0, 1, 64); v.Drop {
		t.Fatalf("message before CrashAt must pass")
	}
	if v := in.Inspect(1000, 0, 1, 64); !v.Drop {
		t.Fatalf("message inside the crash window must vanish")
	}
	if v := in.Inspect(1999, 1, 2, 64); !v.Drop {
		t.Fatalf("outbound message inside the crash window must vanish")
	}
	if v := in.Inspect(2000, 0, 1, 64); v.Drop {
		t.Fatalf("message at RecoverAt must pass — the window is half-open")
	}
	if v := in.Inspect(5000, 1, 2, 64); v.Drop {
		t.Fatalf("outbound message after recovery must pass")
	}
	if got := in.Stats().Blackholed; got != 2 {
		t.Fatalf("Blackholed = %d, want 2", got)
	}
}

func TestPlanValidate(t *testing.T) {
	ok := Plan{Kernels: []KernelFault{{Kernel: 1, CrashAt: 100, RecoverAt: 200}, {Kernel: 2, CrashAt: 50}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{Kernels: []KernelFault{{Kernel: 1, RecoverAt: 200}}},               // recovery without a crash
		{Kernels: []KernelFault{{Kernel: 1, CrashAt: 200, RecoverAt: 200}}}, // empty window
		{Kernels: []KernelFault{{Kernel: 1, CrashAt: 300, RecoverAt: 200}}}, // inverted window
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid plan %d accepted", i)
		}
	}
}

func TestKernelStall(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Kernels: []KernelFault{{Kernel: 1, StallAt: 1000, StallFor: 500}}}, 4)
	if v := in.Inspect(500, 0, 1, 64); v.Delay != 0 {
		t.Fatalf("pre-stall message delayed by %d", v.Delay)
	}
	// A message arriving mid-window is held until the window closes.
	if v := in.Inspect(1200, 0, 1, 64); v.Delay != 300 {
		t.Fatalf("mid-stall delay = %d, want 300", v.Delay)
	}
	// Stall applies to traffic INTO the stalled kernel only.
	if v := in.Inspect(1200, 1, 0, 64); v.Delay != 0 {
		t.Fatalf("outbound traffic of a stalled kernel delayed by %d", v.Delay)
	}
	if v := in.Inspect(1500, 0, 1, 64); v.Delay != 0 {
		t.Fatalf("post-stall message delayed by %d", v.Delay)
	}
	if got := in.Stats().Stalled; got != 1 {
		t.Fatalf("Stalled = %d, want 1", got)
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(Plan{Seed: 123}, 4)
	for _, v := range inspectSequence(in, 1024) {
		if v != (noc.Verdict{}) {
			t.Fatalf("zero plan produced verdict %+v", v)
		}
	}
	st := in.Stats()
	if st.Dropped+st.Duplicated+st.Delayed+st.Stalled+st.Blackholed != 0 {
		t.Fatalf("zero plan counted injections: %+v", st)
	}
}
