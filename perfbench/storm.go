package main

import (
	"math/rand/v2"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// The capability storm: every client runs a closed-loop op script against
// its group kernel. Slot 0 of each client is its shared root S, which peers
// obtain copies of; the client's other slots hold local chains (Fig 4) and
// one wide tree W (Fig 5) that it may also delegate to peers. Clients move
// through build, exchange and revoke at their own pace, so creations and
// deletions run side by side; a machine-wide barrier precedes the final
// revocation of every S, the widest spanning trees of the run.

type opKind uint8

const (
	opAlloc    opKind = iota // AllocMem into Dst
	opDerive                 // DeriveMem(Src) into Dst
	opObtain                 // ObtainFrom(Peer's slot 0)
	opDelegate               // DelegateTo(Peer, Src)
	opRevoke                 // Revoke(Src)
	opPublish                // make slot 0 available to peers
	opBarrier                // wait for every client's exchanges
)

// step is one entry of a client's op script. Src and Dst index the
// client's slot table, which maps to selectors at run time.
type step struct {
	Kind     opKind
	Src, Dst int32
	Peer     int32
}

// stormShape sizes one storm machine. Per-client sizes are drawn uniformly
// from the [lo, hi] ranges, so the machine's total stays near the mean for
// every seed while clients finish their phases at different times.
type stormShape struct {
	Kernels, ClientsPerKernel int
	Chains, Depth, Fanout     [2]int
	Exchanges                 [2]int
	// SpanLo and SpanHi bound each client's spanning fraction: the share
	// of its exchanges that target a client of another kernel.
	SpanLo, SpanHi float64
}

// stormScript is the generated input of one storm machine.
type stormScript struct {
	Shape   stormShape
	Clients [][]step
}

func draw(r *rand.Rand, b [2]int) int { return b[0] + r.IntN(b[1]-b[0]+1) }

// genStorm generates one machine's scripts from r.
func genStorm(r *rand.Rand, sh stormShape) stormScript {
	n := sh.Kernels * sh.ClientsPerKernel
	sc := stormScript{Shape: sh, Clients: make([][]step, n)}
	kernelOf := func(c int) int { return c / sh.ClientsPerKernel }
	for c := 0; c < n; c++ {
		var s []step
		slots := int32(1)
		alloc := func() int32 { slots++; return slots - 1 }
		s = append(s, step{Kind: opAlloc, Dst: 0}, step{Kind: opPublish})

		// Build: local chains and one wide tree.
		var chains [][]int32
		for i, nc := 0, draw(r, sh.Chains); i < nc; i++ {
			root := alloc()
			s = append(s, step{Kind: opAlloc, Dst: root})
			chain := []int32{root}
			for d, depth := 0, draw(r, sh.Depth); d < depth; d++ {
				next := alloc()
				s = append(s, step{Kind: opDerive, Src: chain[len(chain)-1], Dst: next})
				chain = append(chain, next)
			}
			chains = append(chains, chain)
		}
		w := alloc()
		s = append(s, step{Kind: opAlloc, Dst: w})
		var leaves []int32
		for i, f := 0, draw(r, sh.Fanout); i < f; i++ {
			leaf := alloc()
			s = append(s, step{Kind: opDerive, Src: w, Dst: leaf})
			leaves = append(leaves, leaf)
		}

		// Exchange: obtain peers' shared roots, delegate W to peers.
		span := sh.SpanLo + r.Float64()*(sh.SpanHi-sh.SpanLo)
		for i, ne := 0, draw(r, sh.Exchanges); i < ne; i++ {
			var peer int
			if sh.Kernels > 1 && r.Float64() < span {
				k := (kernelOf(c) + 1 + r.IntN(sh.Kernels-1)) % sh.Kernels
				peer = k*sh.ClientsPerKernel + r.IntN(sh.ClientsPerKernel)
			} else {
				base := kernelOf(c) * sh.ClientsPerKernel
				peer = base + (c-base+1+r.IntN(max(sh.ClientsPerKernel-1, 1)))%sh.ClientsPerKernel
			}
			if r.IntN(5) < 3 {
				s = append(s, step{Kind: opObtain, Peer: int32(peer), Dst: alloc()})
			} else {
				s = append(s, step{Kind: opDelegate, Peer: int32(peer), Src: w})
			}
		}

		// Revoke seeded subtrees: a suffix of each chain, then its root;
		// some single leaves of W, then W with everything delegated from it.
		for _, chain := range chains {
			cut := 1 + r.IntN(len(chain)-1)
			s = append(s, step{Kind: opRevoke, Src: chain[cut]}, step{Kind: opRevoke, Src: chain[0]})
		}
		for _, leaf := range leaves {
			if r.IntN(4) == 0 {
				s = append(s, step{Kind: opRevoke, Src: leaf})
			}
		}
		s = append(s, step{Kind: opRevoke, Src: w}, step{Kind: opBarrier}, step{Kind: opRevoke, Src: 0})
		sc.Clients[c] = s
	}
	return sc
}

// peakCaps is the number of capabilities the script creates, counted as
// if nothing were revoked meanwhile.
func (sc stormScript) peakCaps() int {
	n := 0
	for _, s := range sc.Clients {
		n++ // the VPE's own capability
		for _, st := range s {
			switch st.Kind {
			case opAlloc, opDerive, opObtain, opDelegate:
				n++
			}
		}
	}
	return n
}

// stormClient is the run-time state of one client.
type stormClient struct {
	vpe       *core.VPE
	kernel    int
	sels      []cap.Selector
	published *sim.Future[struct{}]
	// spanned marks slots with a child in another kernel's group, which
	// makes revoking them a spanning revocation.
	spanned map[int32]bool
}

// stormMachine is the run-time state of one storm machine.
type stormMachine struct {
	sys     *core.System
	clients []*stormClient
	barrier sim.WaitGroup
	ps      *simStats
	t       *tracer
	end     sim.Time // the last client's finish: the machine's makespan
}

// buildStorm constructs a storm machine and spawns its clients (the
// measured set-up). The returned function collects the results after Run.
func buildStorm(sc stormScript, ps *simStats, t *tracer, parent int64) (*core.System, func(), error) {
	sh := sc.Shape
	n := len(sc.Clients)
	cfg := core.Config{
		Kernels:     sh.Kernels,
		UserPEs:     n,
		MemBytes:    1 << 40, // accounting only
		RelaxLimits: sh.Kernels > core.MaxKernels,
	}
	id := t.begin("NewSystem", parent)
	sys, err := core.NewSystem(cfg)
	t.end(id)
	if err != nil {
		return nil, nil, err
	}
	sys.Eng.SetEventLimit(eventLimit)
	m := &stormMachine{sys: sys, clients: make([]*stormClient, n), ps: ps, t: t}
	m.barrier.Add(n)
	pes := sys.UserPEs()
	for c := range m.clients {
		m.clients[c] = &stormClient{
			kernel:    sys.KernelOfPE(pes[c]).ID(),
			sels:      make([]cap.Selector, slotCount(sc.Clients[c])),
			published: sim.NewFuture[struct{}](sys.Eng),
			spanned:   map[int32]bool{},
		}
	}
	id = t.begin("SpawnOn", parent)
	defer t.end(id)
	for c, script := range sc.Clients {
		cl := m.clients[c]
		root := t.reserve("client", parent, c, cl.kernel)
		v, err := sys.SpawnOn(pes[c], "c", func(v *core.VPE, p *sim.Proc) {
			start := p.Now()
			ok := m.runClient(v, p, c, script, root)
			done := p.Now()
			t.finish(root, start, done, ok)
			ps.AppRun = append(ps.AppRun, done-start)
			m.end = max(m.end, done)
		})
		if err != nil {
			return nil, nil, err
		}
		cl.vpe = v
	}
	return sys, func() {
		for _, cl := range m.clients {
			ps.CapOps += cl.vpe.CapOps()
		}
		ps.machineDone(sys, m.end, t, parent)
	}, nil
}

func slotCount(script []step) int {
	n := int32(1)
	for _, st := range script {
		n = max(n, st.Dst+1)
	}
	return int(n)
}

// runClient executes client c's op script in closed loop and reports
// whether every operation returned OK.
func (m *stormMachine) runClient(v *core.VPE, p *sim.Proc, c int, script []step, root int64) bool {
	cl, ps := m.clients[c], m.ps
	allOK, revoking := true, false
	for _, st := range script {
		var kind string
		dst := cl.kernel
		var op func() error
		switch st.Kind {
		case opPublish:
			cl.published.CompleteFrom(p, struct{}{})
			continue
		case opBarrier:
			m.barrier.Done()
			m.barrier.Wait(p)
			continue
		case opAlloc:
			op = func() error {
				sel, err := v.AllocMem(p, 4096, dtu.PermRW)
				cl.sels[st.Dst] = sel
				return err
			}
		case opDerive:
			kind = "derive"
			op = func() error {
				sel, err := v.DeriveMem(p, cl.sels[st.Src], 0, 64, dtu.PermR)
				cl.sels[st.Dst] = sel
				return err
			}
		case opObtain:
			peer := m.clients[st.Peer]
			peer.published.Wait(p)
			dst = peer.kernel
			kind = "obtain_local"
			if dst != cl.kernel {
				kind = "obtain_span"
				peer.spanned[0] = true
			}
			op = func() error {
				sel, err := v.ObtainFrom(p, peer.vpe.ID, peer.sels[0])
				cl.sels[st.Dst] = sel
				return err
			}
		case opDelegate:
			peer := m.clients[st.Peer]
			peer.published.Wait(p)
			dst = peer.kernel
			kind = "delegate"
			if dst != cl.kernel {
				cl.spanned[st.Src] = true
			}
			op = func() error {
				_, err := v.DelegateTo(p, peer.vpe.ID, cl.sels[st.Src])
				return err
			}
		case opRevoke:
			if !revoking {
				// The client's population is at its largest just before
				// its first revocation.
				ps.sampleLive(m.sys)
				revoking = true
			}
			kind = "revoke_local"
			if cl.spanned[st.Src] {
				kind = "revoke_span"
			}
			op = func() error { return v.Revoke(p, cl.sels[st.Src]) }
		}
		start := p.Now()
		ok := op() == nil
		ps.Attempted++
		if !ok {
			ps.Failed++
			allOK = false
		}
		if kind != "" && ok {
			ps.record(kind, p.Now()-start)
		}
		name := kind
		if name == "" {
			name = "alloc"
		}
		m.t.simSpan(name, root, c, cl.kernel, dst, start, p.Now(), ok)
	}
	return allOK
}
