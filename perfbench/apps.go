package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// appsShape sizes one application machine (the paper's §5.3 setup): one
// m3fs service per kernel and the instances spread evenly over the
// kernels, each preferring the service of its own group.
type appsShape struct {
	Kernels, Instances int
}

// appsScript is the generated input of one application machine: which
// recorded trace each instance replays.
type appsScript struct {
	Shape  appsShape
	Traces []string
}

// genApps draws a machine's application mix: every trace gets an equal
// share of the instances (the remainder drawn from r) and r shuffles
// which instance, and therefore which kernel, runs which trace.
func genApps(r *rand.Rand, sh appsShape) appsScript {
	all := trace.All()
	names := make([]string, 0, sh.Instances)
	for i := 0; i < sh.Instances-sh.Instances%len(all); i++ {
		names = append(names, all[i%len(all)].Name)
	}
	for len(names) < sh.Instances {
		names = append(names, all[r.IntN(len(all))].Name)
	}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return appsScript{Shape: sh, Traces: names}
}

// appsMachine lays out one application machine like workload.Run does:
// services round-robin over the groups, instance i in group i mod K, each
// instance using the service of its own group. Spawning the services first
// and the instances after in this order reproduces workload.Run's event
// sequence exactly when every instance replays the same trace (pinned by
// the tests).
func buildApps(sc appsScript, ps *simStats, t *tracer, parent int64) (*core.System, func(), error) {
	k, n := sc.Shape.Kernels, len(sc.Traces)
	services := k
	id := t.begin("NewSystem", parent)
	sys, err := core.NewSystem(core.Config{
		Kernels:  k,
		UserPEs:  services + n,
		MemPEs:   1 + services/8,
		MemBytes: 1 << 40, // accounting only; backing is lazily allocated
	})
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	sys.Eng.SetEventLimit(eventLimit)
	free := make([][]int, k)
	for _, pe := range sys.UserPEs() {
		g := sys.KernelOfPE(pe).ID()
		free[g] = append(free[g], pe)
	}
	take := func(g int) (int, error) {
		if len(free[g]) == 0 {
			return 0, errors.New("apps: out of user PEs")
		}
		pe := free[g][0]
		free[g] = free[g][1:]
		return pe, nil
	}
	// Image sizing as in workload.Run: the largest per-service footprint.
	const extent = 1 << 20
	perSvc := make([]uint64, services)
	for i, name := range sc.Traces {
		perSvc[i%k] += trace.ByName(name).Footprint(extent)
	}
	var image uint64
	for _, b := range perSvc {
		image = max(image, b)
	}
	image += 8 << 20

	id = t.begin("SpawnOn", parent)
	defer t.end(id)
	var allReady sim.WaitGroup
	allReady.Add(services)
	for j := 0; j < services; j++ {
		ready := sim.NewFuture[*m3fs.FS](sys.Eng)
		ready.OnComplete(func(*m3fs.FS) { allReady.Done() })
		pe, err := take(j)
		if err != nil {
			return nil, nil, err
		}
		byTrace := map[string][]string{}
		var order []string
		for i := j; i < n; i += k {
			name := sc.Traces[i]
			if byTrace[name] == nil {
				order = append(order, name)
			}
			byTrace[name] = append(byTrace[name], "inst"+trace.Itoa(i))
		}
		preload := func(fs *m3fs.FS) {
			for _, name := range order {
				workload.Preload(trace.ByName(name), byTrace[name])(fs)
			}
		}
		cfg := m3fs.Config{ServiceName: "m3fs" + trace.Itoa(j), ExtentBytes: extent, ImageBytes: image}
		if _, err := sys.SpawnOn(pe, cfg.ServiceName, m3fs.Program(cfg, preload, ready)); err != nil {
			return nil, nil, err
		}
	}
	results := make([]workload.InstanceResult, n)
	roots := make([]int64, n)
	for i, name := range sc.Traces {
		i, tr := i, trace.ByName(name)
		pe, err := take(i % k)
		if err != nil {
			return nil, nil, err
		}
		svc := "m3fs" + trace.Itoa(i%k)
		roots[i] = t.reserve(tr.Name, parent, i, i%k)
		prog := func(v *core.VPE, p *sim.Proc) {
			allReady.Wait(p)
			replay(v, p, tr, svc, "inst"+trace.Itoa(i), &results[i], ps, t, roots[i])
			// The instance has not exited, so its session is still live:
			// sample the capability population as each instance finishes.
			ps.sampleLive(sys)
		}
		if _, err := sys.SpawnOn(pe, tr.Name+"-"+trace.Itoa(i), prog); err != nil {
			return nil, nil, err
		}
		ps.WantCapOps += tr.WantCapOps
	}
	return sys, func() {
		var makespan sim.Duration
		ends := map[string]sim.Duration{}
		for i, r := range results {
			name := sc.Traces[i]
			ps.Attempted++
			if r.End == 0 || r.Err != nil {
				ps.Failed++
				ps.violate("apps: instance %d (%s) did not finish: %v", i, name, r.Err)
				continue
			}
			ps.Instances++
			ps.InstCapOps += r.CapOps
			ps.CapOps += r.CapOps
			ps.AppRun = append(ps.AppRun, r.Runtime())
			makespan = max(makespan, r.End)
			ends[name] = max(ends[name], r.End)
			t.finish(roots[i], r.Start, r.End, true)
		}
		for name, e := range ends {
			ps.TraceEnd[name] = append(ps.TraceEnd[name], e)
		}
		ps.machineDone(sys, makespan, t, parent)
	}, nil
}

// replay is workload.ReplayProgram with a clock around every trace
// operation. The operations that are capability operations and RPCs only
// (the session dial, open, and close with its revoke) contribute their
// latency, split evenly over the capability operations they issued, to
// the capability-op latencies. Reads and writes also obtain extent
// capabilities, but their time is mostly data movement, so they are left
// out of the latencies; their capability operations still count in
// capops_per_sim_s.
func replay(v *core.VPE, p *sim.Proc, tr *trace.Trace, service, prefix string,
	res *workload.InstanceResult, ps *simStats, t *tracer, root int64) {
	res.VPE = v.ID
	res.Start = p.Now()
	defer func() {
		res.End = p.Now()
		res.CapOps = v.CapOps()
	}()
	kernel := v.Kernel().ID()
	// note charges the interval since (before, start) to the capability-op
	// latencies if the operation is a dial, open or close that issued
	// capability operations.
	note := func(name string, before uint64, start sim.Time) {
		n := v.CapOps() - before
		if n == 0 || (name != "dial" && name != "open" && name != "close") {
			return
		}
		d := (p.Now() - start) / sim.Duration(n)
		for j := uint64(0); j < n; j++ {
			ps.record("", d)
		}
		t.simSpan(name, root, v.ID, kernel, kernel, start, p.Now(), true)
	}
	before, start := v.CapOps(), p.Now()
	client, err := m3fs.Dial(p, v, service)
	if err != nil {
		res.Err = fmt.Errorf("replay %s: %w", tr.Name, err)
		return
	}
	note("dial", before, start)
	files := make(map[int]*m3fs.File)
	for i, op := range tr.Ops {
		before, start := v.CapOps(), p.Now()
		if err := replayOp(client, p, files, prefix, op); err != nil {
			res.Err = fmt.Errorf("replay %s op %d (%d): %w", tr.Name, i, op.Kind, err)
			return
		}
		note(opLabel(op.Kind), before, start)
	}
}

func opLabel(k trace.OpKind) string {
	switch k {
	case trace.OpOpen:
		return "open"
	case trace.OpClose:
		return "close"
	case trace.OpRead:
		return "read"
	case trace.OpWrite:
		return "write"
	}
	return "fsop"
}

// replayOp is workload's per-operation replay, op for op.
func replayOp(c *m3fs.Client, p *sim.Proc, files map[int]*m3fs.File, prefix string, op trace.Op) error {
	path := prefix + "/" + op.Path
	file := func() (*m3fs.File, error) {
		if f := files[op.Slot]; f != nil {
			return f, nil
		}
		return nil, core.ErrBadArgs
	}
	switch op.Kind {
	case trace.OpCompute:
		p.Sleep(op.Cycles)
	case trace.OpOpen:
		f, err := c.Open(p, path, op.Create, op.Trunc)
		if err != nil {
			return err
		}
		files[op.Slot] = f
	case trace.OpRead:
		f, err := file()
		if err != nil {
			return err
		}
		_, err = f.Read(p, op.Bytes)
		return err
	case trace.OpWrite:
		f, err := file()
		if err != nil {
			return err
		}
		return f.Write(p, op.Bytes)
	case trace.OpSeek:
		f, err := file()
		if err != nil {
			return err
		}
		f.Seek(op.Bytes)
	case trace.OpClose:
		f, err := file()
		if err != nil {
			return err
		}
		delete(files, op.Slot)
		return f.Close(p, op.Revoke)
	case trace.OpStat:
		if _, err := c.Stat(p, path); err != nil && err != core.ErrNoSuchCap {
			return err
		}
	case trace.OpMkdir:
		return c.Mkdir(p, path)
	case trace.OpUnlink:
		return c.Unlink(p, path)
	case trace.OpReaddir:
		_, err := c.Readdir(p, path)
		return err
	default:
		return core.ErrBadArgs
	}
	return nil
}
