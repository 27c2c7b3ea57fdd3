package main

import (
	"math/rand/v2"

	"repro/internal/core"
)

// eventLimit bounds every machine's run. A machine that reaches it was
// truncated, which the correctness gate counts as a failure.
const eventLimit = 200_000_000

// machineScript is the generated input of one simulated machine. build
// constructs the machine and spawns its programs (the measured set-up) and
// returns a function that gathers its results once it has drained.
type machineScript interface {
	build(ps *simStats, t *tracer, parent int64) (*core.System, func(), error)
}

func (sc appsScript) build(ps *simStats, t *tracer, parent int64) (*core.System, func(), error) {
	return buildApps(sc, ps, t, parent)
}

func (sc stormScript) build(ps *simStats, t *tracer, parent int64) (*core.System, func(), error) {
	return buildStorm(sc, ps, t, parent)
}

// workloadDef is one benchmark workload: a fixed number of machines per
// pass, each generated from the seed.
type workloadDef struct {
	Name, Why string
	gen       func(r *rand.Rand) []machineScript
}

// generate produces a pass's machine scripts from the seed: the same seed
// gives the same scripts.
func (w workloadDef) generate(seed uint64) []machineScript {
	return w.gen(rand.New(rand.NewPCG(seed, 0x5e3970005)))
}

// sizes are the machine shapes of the workloads; tests shrink them.
type sizes struct {
	AppsMachines int
	Apps         appsShape
	Storm        stormShape
}

var fullSizes = sizes{
	AppsMachines: 2,
	Apps:         appsShape{Kernels: 64, Instances: 512},
	Storm: stormShape{
		Kernels: 192, ClientsPerKernel: 2,
		Chains: [2]int{2, 6}, Depth: [2]int{12, 36}, Fanout: [2]int{24, 72},
		Exchanges: [2]int{24, 72}, SpanLo: 0.2, SpanHi: 0.5,
	},
}

func workloads(sz sizes) []workloadDef {
	return []workloadDef{
		{
			Name: "apps",
			Why:  "the paper's application traces on m3fs: stresses sim procs, dtu transfers and m3fs, bypasses IKC and revocation",
			gen: func(r *rand.Rand) []machineScript {
				var ms []machineScript
				for i := 0; i < sz.AppsMachines; i++ {
					ms = append(ms, genApps(r, sz.Apps))
				}
				return ms
			},
		},
		{
			Name: "capstorm",
			Why:  "capability forest, exchanges and revocations on a large machine: stresses cap, ddl, IKC and noc, bypasses m3fs",
			gen: func(r *rand.Rand) []machineScript {
				return []machineScript{genStorm(r, sz.Storm)}
			},
		},
	}
}

// stormPeak is the number of capabilities the capstorm machine creates
// for the seed, the size of the cap and ddl probes. Revocations run
// alongside the creations, so it bounds the live population from above;
// cap.live_peak reports the population actually sampled.
func stormPeak(sz sizes, seed uint64) int {
	for _, w := range workloads(sz) {
		if w.Name == "capstorm" {
			return w.generate(seed)[0].(stormScript).peakCaps()
		}
	}
	return 0
}
