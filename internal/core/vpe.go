package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// User-PE DTU endpoint layout.
const (
	vpeSyscallSendEP  = 0 // send syscalls to the group kernel
	vpeSyscallReplyEP = 1 // receive syscall replies
	vpeServiceReplyEP = 3 // receive service IPC replies

	// vpeFirstSessionEP..vpeLastSessionEP are send endpoints to services,
	// one per session.
	vpeFirstSessionEP = 4
	vpeLastSessionEP  = 9
	// vpeFirstMemEP..vpeLastMemEP are memory endpoints, activated from
	// memory capabilities.
	vpeFirstMemEP = 10
	vpeLastMemEP  = 15
)

// Program is the code a VPE executes, running as a cooperative proc.
type Program func(v *VPE, p *sim.Proc)

// VPE is a virtual PE: the unit of execution scheduled on a user PE,
// comparable to a single-threaded process (paper §2.2). Each VPE has its
// own capability space managed by its group kernel, and issues system calls
// as messages to that kernel — at most one at a time.
type VPE struct {
	ID   int
	Name string
	PE   int

	sys    *System
	kernel *Kernel
	dtu    *dtu.DTU
	prog   Program
	proc   *sim.Proc

	selfSel cap.Selector // selector of the VPE's own control capability

	// call is the VPE's syscall frame; every syscall travels in it.
	call sysCall

	// OnExchange, if set, decides on incoming exchange requests; the
	// default accepts everything. It runs as the VPE's exchange handler.
	OnExchange func(ExchangeQuery) ExchangeAnswer

	// svc is non-nil when this VPE registered as a service.
	svc *localService

	// activeEPs maps activated endpoint indices to the backing selector,
	// so revocation can invalidate them.
	activeEPs map[int]cap.Selector

	// nextSessEP allocates send endpoints for sessions.
	nextSessEP int

	exited   bool
	started  bool
	doneAt   sim.Time
	capOps   uint64
	syscalls uint64
}

// Kernel returns the kernel managing this VPE.
func (v *VPE) Kernel() *Kernel { return v.kernel }

// SelfSel returns the selector of the VPE's own control capability.
func (v *VPE) SelfSel() cap.Selector { return v.selfSel }

// Exited reports whether the VPE has exited (or was killed).
func (v *VPE) Exited() bool { return v.exited }

// DoneAt returns the virtual time the program finished (0 if running).
func (v *VPE) DoneAt() sim.Time { return v.doneAt }

// CapOps returns the number of capability operations (obtain, delegate,
// revoke, session create) this VPE has issued — the paper's Table 4 metric.
func (v *VPE) CapOps() uint64 { return v.capOps }

// Syscalls returns the number of system calls this VPE has issued.
func (v *VPE) Syscalls() uint64 { return v.syscalls }

// start launches the VPE's program (called by the kernel after setup).
func (v *VPE) start() {
	if v.started || v.prog == nil {
		return
	}
	v.started = true
	v.proc = v.sys.Eng.Spawn(fmt.Sprintf("vpe%d:%s", v.ID, v.Name), func(p *sim.Proc) {
		v.prog(v, p)
		if !v.exited {
			v.doneAt = p.Now()
		}
	})
}

// answerExchange runs the VPE's exchange handler (event context; the
// decision cost is charged by the kernel's query round trip).
func (v *VPE) answerExchange(q ExchangeQuery) ExchangeAnswer {
	if v.exited {
		return ExchangeAnswer{Accept: false}
	}
	if v.OnExchange != nil {
		return v.OnExchange(q)
	}
	return ExchangeAnswer{Accept: true}
}

// Kill marks the VPE as exited immediately, without running cleanup — the
// fault model for the paper's orphaned/invalid interference cases. The
// kernel discovers the death when it next interacts with the VPE.
func (v *VPE) Kill() { v.exited = true }

// syscall sends a request message to the group kernel and blocks until the
// reply arrives, like the paper's message-based system calls. Each VPE has
// a single syscall credit, enforcing one outstanding call; the request and
// the reply travel in the VPE's syscall frame (sysCall), so a call
// allocates nothing beyond its two DTU messages.
func (v *VPE) syscall(p *sim.Proc, req sysRequest) sysReply {
	c := &v.call
	if c.busy {
		panic(fmt.Sprintf("core: VPE %d (%s) issued syscall %s while its %s call is outstanding; a VPE has one syscall frame",
			v.ID, v.Name, req.Kind, c.req.Kind))
	}
	c.busy = true
	req.VPE = v.ID
	c.req = req
	v.syscalls++
	if err := v.dtu.Send(vpeSyscallSendEP, c, syscallMsgBytes, vpeSyscallReplyEP, 0); err != nil {
		panic(fmt.Sprintf("core: syscall send failed: %v", err))
	}
	m := v.dtu.Wait(p, vpeSyscallReplyEP)
	rep := m.Payload.(*sysCall).rep
	v.dtu.Ack(m)
	c.busy = false
	return rep
}

// Compute models local computation for d cycles.
func (v *VPE) Compute(p *sim.Proc, d sim.Duration) { p.Sleep(d) }

// TransferData models moving bytes of bulk data over the PE group's shared
// mesh region: transfers of VPEs in the same group serialize on the link.
func (v *VPE) TransferData(p *sim.Proc, bytes uint64) {
	d := sim.Duration(float64(bytes) * v.sys.Cost.LinkCyclesPerByte)
	if d == 0 {
		return
	}
	v.kernel.link.Acquire(p)
	p.Sleep(d)
	v.kernel.link.Release()
}

// AllocMem allocates size bytes of global memory with the given permissions
// and returns a root memory capability.
func (v *VPE) AllocMem(p *sim.Proc, size uint64, perm dtu.Perm) (cap.Selector, error) {
	rep := v.syscall(p, sysRequest{Kind: sysAllocMem, Size: size, Perm: perm})
	return rep.Sel, rep.Err.Err()
}

// DeriveMem creates a child memory capability covering [off, off+size) of
// the memory capability at sel, with possibly reduced permissions.
func (v *VPE) DeriveMem(p *sim.Proc, sel cap.Selector, off, size uint64, perm dtu.Perm) (cap.Selector, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysDeriveMem, Sel: sel, Off: off, Size: size, Perm: perm})
	return rep.Sel, rep.Err.Err()
}

// ObtainFrom obtains the capability at (srcVPE, srcSel) into this VPE's
// capability space. The owner VPE is asked for consent; the kernels run the
// distributed obtain protocol if the owner lives in another PE group.
func (v *VPE) ObtainFrom(p *sim.Proc, srcVPE int, srcSel cap.Selector) (cap.Selector, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysObtainFrom, TargetVPE: srcVPE, TargetSel: srcSel})
	return rep.Sel, rep.Err.Err()
}

// DelegateTo delegates this VPE's capability at sel to dstVPE. The receiver
// is asked for consent; across groups the two-way handshake protocol runs.
func (v *VPE) DelegateTo(p *sim.Proc, dstVPE int, sel cap.Selector) (cap.Selector, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysDelegateTo, TargetVPE: dstVPE, Sel: sel})
	return rep.Sel, rep.Err.Err()
}

// Revoke recursively revokes the capability subtree rooted at sel.
func (v *VPE) Revoke(p *sim.Proc, sel cap.Selector) error {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysRevoke, Sel: sel})
	return rep.Err.Err()
}

// CreateRgate creates a receive gate on this VPE's endpoint ep and returns
// its capability. Other VPEs can obtain send capabilities from it.
func (v *VPE) CreateRgate(p *sim.Proc, ep, slots int) (cap.Selector, error) {
	rep := v.syscall(p, sysRequest{Kind: sysCreateRgate, EP: ep, Size: uint64(slots)})
	return rep.Sel, rep.Err.Err()
}

// Activate configures endpoint ep from the capability at sel (memory or
// send capability), enabling direct DTU access without further kernel
// involvement.
func (v *VPE) Activate(p *sim.Proc, sel cap.Selector, ep int) error {
	rep := v.syscall(p, sysRequest{Kind: sysActivate, Sel: sel, EP: ep})
	return rep.Err.Err()
}

// Exit revokes all of the VPE's capabilities and marks it exited.
func (v *VPE) Exit(p *sim.Proc) {
	v.syscall(p, sysRequest{Kind: sysExit})
	v.exited = true
	v.doneAt = p.Now()
}

// Noop issues a no-op syscall (used to measure the bare syscall path).
func (v *VPE) Noop(p *sim.Proc) {
	v.syscall(p, sysRequest{Kind: sysNoop})
}

// DTU exposes the VPE's DTU for direct data access after Activate.
func (v *VPE) DTU() *dtu.DTU { return v.dtu }
