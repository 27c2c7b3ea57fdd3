package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// KernelStats counts per-kernel activity. Busy is the accumulated CPU time
// of the kernel PE, which divided by elapsed time gives its utilization.
type KernelStats struct {
	Syscalls      uint64
	IKCSent       uint64 // request-direction wire messages sent (an envelope counts once)
	IKCReceived   uint64 // request-direction wire messages received
	IKCBatched    uint64 // requests that travelled inside a coalesced envelope
	IKCBatches    uint64 // coalesced request envelopes sent
	IKCRepSent    uint64 // reply-direction wire messages sent (an envelope counts once)
	IKCRepBatched uint64 // replies that travelled inside a coalesced envelope
	IKCRepBatches uint64 // coalesced reply envelopes sent
	Obtains       uint64
	Delegates     uint64
	Revokes       uint64
	Sessions      uint64
	CapsCreated   uint64
	CapsDeleted   uint64
	Orphans       uint64
	Busy          sim.Duration

	// Reliable-mode counters (reliability.go); all zero with faults off.
	Retransmits     uint64       // wire transmissions re-sent after a timeout
	DupSuppressed   uint64       // received requests suppressed as duplicates
	ReplayedReplies uint64       // cached replies replayed for duplicates
	LateReplies     uint64       // replies for unknown (already resolved) seqs
	FailFast        uint64       // requests failed immediately: peer already dead
	DeadPeers       uint64       // peers this kernel declared dead
	Recovered       uint64       // transmissions that completed after a retry
	RecoveryCycles  sim.Duration // summed first-send→completion time of recovered transmissions
	RevokedInFlight uint64       // spanning exchanges killed by a revoke racing their reply

	// Crash-recovery counters (rejoin.go); all zero without a RecoverAt.
	Rejoins          uint64       // rejoin handshakes completed as the recovering kernel
	RejoinCycles     sim.Duration // summed recovery-start→handshake-completion time
	StaleIncarnation uint64       // envelopes rejected: sent by or to a dead incarnation
}

func (a *KernelStats) add(b KernelStats) {
	a.Syscalls += b.Syscalls
	a.IKCSent += b.IKCSent
	a.IKCReceived += b.IKCReceived
	a.IKCBatched += b.IKCBatched
	a.IKCBatches += b.IKCBatches
	a.IKCRepSent += b.IKCRepSent
	a.IKCRepBatched += b.IKCRepBatched
	a.IKCRepBatches += b.IKCRepBatches
	a.Obtains += b.Obtains
	a.Delegates += b.Delegates
	a.Revokes += b.Revokes
	a.Sessions += b.Sessions
	a.CapsCreated += b.CapsCreated
	a.CapsDeleted += b.CapsDeleted
	a.Orphans += b.Orphans
	a.Busy += b.Busy
	a.Retransmits += b.Retransmits
	a.DupSuppressed += b.DupSuppressed
	a.ReplayedReplies += b.ReplayedReplies
	a.LateReplies += b.LateReplies
	a.FailFast += b.FailFast
	a.DeadPeers += b.DeadPeers
	a.Recovered += b.Recovered
	a.RecoveryCycles += b.RecoveryCycles
	a.RevokedInFlight += b.RevokedInFlight
	a.Rejoins += b.Rejoins
	a.RejoinCycles += b.RejoinCycles
	a.StaleIncarnation += b.StaleIncarnation
}

// CapOps returns the number of capability-modifying and session operations,
// the metric reported in the paper's Table 4.
func (s KernelStats) CapOps() uint64 {
	return s.Obtains + s.Delegates + s.Revokes + s.Sessions
}

// Kernel is one SemperOS microkernel, running on its dedicated kernel PE
// and managing the capabilities of its PE group.
//
// The kernel is cooperatively multithreaded: its work runs in sim.Procs
// that all contend for a single CPU token (the kernel PE has one core), and
// release it only at preemption points — exactly the paper's §4.2 design.
// The thread pool is bounded by Equation 1: V_group syscall threads plus
// K_max * M_inflight inter-kernel threads (with at most two of the latter
// budget used for incoming revoke requests).
type Kernel struct {
	id     int
	pe     int
	sys    *System
	dtu    *dtu.DTU
	store  *cap.Store
	gen    *ddl.Generator
	member *ddl.Membership
	group  []int // user PEs of this group

	cpu  *sim.Semaphore // the kernel PE's single core
	link *sim.Semaphore // the group's shared mesh-region bandwidth

	syscallPool    *pool
	ikcPool        *pool
	revokePool     *pool
	completionPool *pool // revoke-reply processing ("main loop" work)

	// xport is the unified IKC transport: per-destination aggregation
	// queues and the batching policy (transport.go).
	xport *transport

	// rt is the reliable-IKC state (retransmission tracking, receiver
	// dedup, dead-peer verdicts); nil in the baseline lossless mode.
	rt *relState

	// incarnation numbers this kernel's lifetimes, starting at 1 and
	// bumped at every scripted recovery (rejoin.go). It stamps outgoing
	// IKC envelopes so peers can tell a live request from a dead
	// incarnation's retransmit.
	incarnation uint32

	// orphanFixes records cross-kernel tree-maintenance operations that
	// failed with ErrPeerDead, replayed when the peer rejoins (rejoin.go).
	orphanFixes []orphanFix

	// inflight limits unprocessed requests per destination kernel,
	// indexed densely by kernel id (entries created lazily).
	inflight []*sim.Semaphore
	pending  map[uint64]*sim.Future[*ikcReply]
	seq      uint64

	// pendingDelegations holds capabilities created by the delegate
	// two-way handshake that await the originator's acknowledgement.
	pendingDelegations ddl.KeyMap[*cap.Capability]

	// inflightObtains tracks spanning obtains between the moment their
	// child identity is agreed (the request leaves) and the moment the
	// reply is consumed, keyed by exchangeID. A revoke reaching this kernel
	// for a key it has never inserted tombstones a matching entry so a
	// late or replayed reply cannot resurrect the revoked child
	// (exchange.go, revoke.go).
	inflightObtains map[uint64]*inflightObtain

	// revocations maps every marked capability to the state of the
	// revocation that marked it (paper Algorithm 1).
	revocations ddl.KeyMap[*revState]

	stats KernelStats
}

func newKernel(s *System, id int) *Kernel {
	k := &Kernel{
		id:              id,
		pe:              id,
		incarnation:     1,
		sys:             s,
		dtu:             s.Fab.DTU(id),
		store:           cap.NewStore(),
		gen:             ddl.NewGenerator(),
		member:          s.member.Clone(),
		cpu:             sim.NewSemaphore(s.Eng, 1),
		link:            sim.NewSemaphore(s.Eng, 1),
		inflight:        make([]*sim.Semaphore, s.cfg.Kernels),
		pending:         make(map[uint64]*sim.Future[*ikcReply]),
		inflightObtains: make(map[uint64]*inflightObtain),
	}
	for _, pe := range s.userPEs {
		if s.member.KernelOf(pe) == id {
			k.group = append(k.group, pe)
		}
	}
	k.syscallPool = newPool(k, "sys", max(len(k.group), 1))
	k.ikcPool = newPool(k, "ikc", k.ikcWindow())
	k.revokePool = newPool(k, "rev", RevokeThreads)
	k.xport = newTransport(k, s.cfg.IKCBatching.withDefaults())
	if s.rel != nil {
		k.rt = newRelState(k, *s.rel)
	}
	// Configure the kernel DTU's syscall receive endpoints; messages are
	// dispatched to the syscall pool.
	for ep := kernelSyscallEP0; ep < kernelSyscallEP0+SyscallRecvEPs; ep++ {
		if err := k.dtu.ConfigureRecv(k.dtu, ep, dtu.DefaultSlots, k.onSyscallMsg); err != nil {
			panic(err)
		}
	}
	// The coalesced request-envelope endpoint. One envelope is one wire
	// message and occupies one slot, so the in-flight bound per peer sizes
	// the budget.
	must(k.dtu.ConfigureRecvVec(k.dtu, ikcBatchEP, k.ikcWindow(), k.recvBatch))
	// The coalesced reply-envelope endpoint. The demux frees every carried
	// message within the delivery event, so occupancy is transient; the
	// budget mirrors the batch endpoint's for symmetry.
	must(k.dtu.ConfigureRecvVec(k.dtu, ikcReplyEP, k.ikcWindow(), k.recvReplyVec))
	return k
}

// ikcWindow is the total inter-kernel in-flight budget this kernel must be
// able to absorb: every peer may have MaxInflight requests outstanding. For
// configurations within the architectural limit this is the historical
// MaxKernels*MaxInflight constant; relaxed-limit scale runs grow it with the
// actual kernel count.
func (k *Kernel) ikcWindow() int {
	return max(MaxKernels, k.sys.cfg.Kernels) * MaxInflight
}

// ID returns the kernel's id.
func (k *Kernel) ID() int { return k.id }

// PE returns the kernel PE.
func (k *Kernel) PE() int { return k.pe }

// Group returns the user PEs managed by this kernel.
func (k *Kernel) Group() []int { return k.group }

// Stats returns a snapshot of the kernel's counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Incarnation returns the kernel's current incarnation number: 1 unless it
// crashed and recovered (rejoin.go bumps it at every scripted recovery).
func (k *Kernel) Incarnation() uint32 { return k.incarnation }

// Store exposes the mapping database for tests and diagnostics.
func (k *Kernel) Store() *cap.Store { return k.store }

// ThreadPoolSize returns the bound of Equation 1:
// V_group + K_max * M_inflight.
func (k *Kernel) ThreadPoolSize() int {
	return len(k.group) + k.ikcWindow()
}

// exec charges d cycles of kernel CPU time. The caller must hold the CPU
// token.
func (k *Kernel) exec(p *sim.Proc, d sim.Duration) {
	k.stats.Busy += d
	p.Sleep(d)
}

// acquireCPU / releaseCPU bracket kernel work; release happens at
// preemption points (waiting for an inter-kernel reply, a VPE consent
// answer, or a service answer).
func (k *Kernel) acquireCPU(p *sim.Proc) { k.cpu.Acquire(p) }
func (k *Kernel) releaseCPU()            { k.cpu.Release() }

// blockOn waits for a future at a preemption point: the CPU is released
// while parked and re-acquired afterwards.
func blockOn[T any](k *Kernel, p *sim.Proc, fut *sim.Future[T]) T {
	k.releaseCPU()
	v := fut.Wait(p)
	k.acquireCPU(p)
	return v
}

// pool is a lazily grown, bounded worker pool of kernel threads. Jobs run
// on cooperative procs.
type pool struct {
	k       *Kernel
	name    string
	max     int
	spawned int
	q       sim.Queue[job]
}

// job is one unit of pool work: a syscall message, an inter-kernel
// request, or else a closure. Syscalls and requests are the hottest jobs, so
// they travel as their message alone instead of as a closure built per job.
type job struct {
	syscall *dtu.Message
	ikc     *ikcRequest
	fn      func(p *sim.Proc)
}

func newPool(k *Kernel, name string, max int) *pool {
	return &pool{k: k, name: name, max: max}
}

// submit enqueues a closure job (see push).
func (pl *pool) submit(fn func(p *sim.Proc)) { pl.push(job{fn: fn}) }

// push enqueues a job, spawning a worker if none is idle and the pool limit
// permits. If the pool is saturated the job waits in the queue — the
// kernel's defense against request floods (paper §4.2).
func (pl *pool) push(j job) {
	if pl.q.Waiters() == 0 && pl.spawned < pl.max {
		pl.spawned++
		name := fmt.Sprintf("k%d/%s%d", pl.k.id, pl.name, pl.spawned)
		pl.k.sys.Eng.Spawn(name, func(p *sim.Proc) {
			for {
				j := pl.q.Pop(p)
				switch {
				case j.syscall != nil:
					pl.k.runSyscall(p, j.syscall)
				case j.ikc != nil:
					pl.k.runRequest(p, j.ikc)
				default:
					j.fn(p)
				}
			}
		})
	}
	pl.q.Push(j)
}

// onSyscallMsg is the DTU handler for the kernel's syscall endpoints.
func (k *Kernel) onSyscallMsg(m *dtu.Message) {
	k.syscallPool.push(job{syscall: m})
}

// runSyscall handles one syscall message on a pool worker.
func (k *Kernel) runSyscall(p *sim.Proc, m *dtu.Message) {
	k.acquireCPU(p)
	k.handleSyscall(p, m)
	k.releaseCPU()
}

// createVPE registers a VPE with its group kernel, configures its DTU and
// starts the program. The setup costs kernel time, so spawning many VPEs
// serializes at their group kernels (visible in the application benchmarks
// as startup cost).
func (k *Kernel) createVPE(v *VPE) {
	k.syscallPool.submit(func(p *sim.Proc) {
		k.acquireCPU(p)
		k.exec(p, k.sys.Cost.VPECreate)
		// Syscall channel: user EP 0 sends to one of the kernel's syscall
		// endpoints; one credit models the single outstanding syscall.
		sysEP := kernelSyscallEP0 + (v.PE % SyscallRecvEPs)
		must(v.dtu.ConfigureSend(k.dtu, vpeSyscallSendEP, k.pe, sysEP, 1, uint64(v.ID)))
		must(v.dtu.ConfigureRecv(k.dtu, vpeSyscallReplyEP, 2, nil))
		must(v.dtu.ConfigureRecv(k.dtu, vpeServiceReplyEP, 2, nil))
		v.dtu.Downgrade()
		// The VPE's root capability: control over itself.
		vcap := &cap.Capability{
			Key:    k.gen.Next(v.PE, v.ID, ddl.TypeVPE),
			Owner:  v.ID,
			Sel:    k.store.AllocSel(v.ID),
			Object: &cap.VPEObject{VPE: v.ID, PE: v.PE},
			Perm:   dtu.PermRW,
		}
		k.store.Insert(vcap)
		k.stats.CapsCreated++
		v.selfSel = vcap.Sel
		k.releaseCPU()
		v.start()
	})
}

// vpeOf returns the VPE for a global id if it is local to this kernel.
func (k *Kernel) vpeOf(id int) *VPE {
	if id < 0 || id >= len(k.sys.vpes) {
		return nil
	}
	v := k.sys.vpes[id]
	if v == nil || v.kernel != k {
		return nil
	}
	return v
}

// askVPE queries a local VPE for consent to a capability exchange (paper
// Fig. 3 steps A.2/A.3). The kernel releases its CPU while the query
// travels to the user PE and back.
func (k *Kernel) askVPE(p *sim.Proc, v *VPE, q ExchangeQuery) bool {
	a := &vpeAsk{k: k, v: v, q: q, accept: k.sys.Cost.VPEAccept}
	k.sys.Net.SendAction(k.pe, v.PE, vpeQueryBytes, a)
	return blockOn(k, p, &a.fut)
}

// vpeAsk is one consent query in flight. It is the Action of each of its
// three legs in turn, so the round trip allocates only this object: the
// query arriving at the VPE, the VPE's decision time, and the answer
// arriving back at the kernel. The user-PE links it travels are never
// faulted, so no leg fires twice.
type vpeAsk struct {
	k      *Kernel
	v      *VPE
	q      ExchangeQuery
	accept sim.Duration // the VPE's decision time
	stage  uint8
	ans    bool
	fut    sim.Future[bool]
}

// The legs of a vpeAsk, in firing order.
const (
	askQuery  = iota // the query reaches the VPE, whose handler decides
	askDecide        // the decision time has passed; the answer leaves
	askAnswer        // the answer reaches the kernel
)

// Fire runs the leg the query has reached.
func (a *vpeAsk) Fire() {
	switch a.stage {
	case askQuery:
		a.ans = a.v.answerExchange(a.q).Accept
		a.stage = askDecide
		a.k.sys.Eng.ScheduleAction(a.accept, a)
	case askDecide:
		a.stage = askAnswer
		a.k.sys.Net.SendAction(a.v.PE, a.k.pe, 16, a)
	default:
		a.fut.Complete(a.ans)
	}
}

// mintKey creates a fresh DDL key whose partition belongs to this kernel.
func (k *Kernel) mintKey(creatorPE, creatorVPE int, typ ddl.Type) ddl.Key {
	return k.gen.Next(creatorPE, creatorVPE, typ)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
