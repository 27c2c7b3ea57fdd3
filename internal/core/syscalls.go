package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// handleSyscall runs on a syscall-pool thread with the CPU held. It decodes
// the request, executes the handler and replies to the VPE through the DTU
// (freeing the syscall slot and returning the VPE's credit). The reply is
// written into the VPE's syscall frame, which travels back as the reply
// message's payload.
func (k *Kernel) handleSyscall(p *sim.Proc, m *dtu.Message) {
	call := m.Payload.(*sysCall)
	req := &call.req
	k.stats.Syscalls++
	k.exec(p, k.sys.Cost.SyscallDispatch)

	var rep sysReply
	switch req.Kind {
	case sysAllocMem:
		rep = k.sysAllocMem(p, req)
	case sysDeriveMem:
		rep = k.sysDeriveMem(p, req)
	case sysObtainFrom:
		rep = k.sysObtainFrom(p, req)
	case sysDelegateTo:
		rep = k.sysDelegateTo(p, req)
	case sysRevoke:
		rep = k.sysRevoke(p, req)
	case sysCreateRgate:
		rep = k.sysCreateRgate(p, req)
	case sysCreateSession:
		rep = k.sysCreateSession(p, req)
	case sysObtainSess:
		rep = k.sysObtainSess(p, req)
	case sysDelegateSess:
		rep = k.sysDelegateSess(p, req)
	case sysActivate:
		rep = k.sysActivate(p, req)
	case sysRegisterService:
		rep = k.sysRegisterService(p, req)
	case sysExit:
		rep = k.sysExit(p, req)
	case sysNoop:
		rep = sysReply{}
	default:
		rep = sysReply{Err: ErrBadArgs}
	}

	k.exec(p, k.sys.Cost.SyscallReply)
	call.rep = rep
	k.dtu.Reply(m, call, syscallRepBytes)
}

// insertCap stores a freshly created capability, charging creation and
// linking costs.
func (k *Kernel) insertCap(p *sim.Proc, c *cap.Capability) {
	k.exec(p, k.sys.Cost.CapCreate+k.sys.Cost.CapLink)
	k.store.Insert(c)
	k.stats.CapsCreated++
}

// lookupSel finds a VPE's capability and charges lookup plus DDL-decoding
// cost (SemperOS references capabilities by DDL key rather than pointer;
// the decode is the overhead measured in Table 3).
func (k *Kernel) lookupSel(p *sim.Proc, vpe int, sel cap.Selector) *cap.Capability {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	return k.store.LookupSel(vpe, sel)
}

func (k *Kernel) sysAllocMem(p *sim.Proc, req *sysRequest) sysReply {
	pe, off, err := k.sys.allocDRAM(req.Size)
	if err != nil {
		return sysReply{Err: ErrOutOfMem}
	}
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	c := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeMem),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &cap.MemObject{PE: pe, Off: off, Size: req.Size, Perm: req.Perm},
		Perm:   req.Perm,
	}
	k.insertCap(p, c)
	return sysReply{Sel: c.Sel}
}

func (k *Kernel) sysDeriveMem(p *sim.Proc, req *sysRequest) sysReply {
	parent := k.lookupSel(p, req.VPE, req.Sel)
	if parent == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if parent.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	mo, ok := parent.Object.(*cap.MemObject)
	if !ok {
		return sysReply{Err: ErrBadArgs}
	}
	if req.Off+req.Size > mo.Size {
		return sysReply{Err: ErrBadArgs}
	}
	if req.Perm&^parent.Perm != 0 {
		return sysReply{Err: ErrDenied}
	}
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	k.stats.Obtains++ // a derive is a local exchange with oneself
	child := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeMem),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &cap.MemObject{PE: mo.PE, Off: mo.Off + req.Off, Size: req.Size, Perm: req.Perm},
		Perm:   req.Perm,
		Parent: parent.Key,
	}
	parent.AddChild(child.Key)
	k.exec(p, k.sys.Cost.CapLink)
	k.insertCap(p, child)
	return sysReply{Sel: child.Sel}
}

func (k *Kernel) sysCreateRgate(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	slots := int(req.Size)
	if slots <= 0 || slots > dtu.DefaultSlots {
		slots = dtu.DefaultSlots
	}
	k.exec(p, k.sys.Cost.EPConfig)
	if err := v.dtu.ConfigureRecv(k.dtu, req.EP, slots, nil); err != nil {
		return sysReply{Err: ErrBadArgs}
	}
	c := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeRecv),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &cap.RecvObject{PE: v.PE, EP: req.EP, Slots: slots},
		Perm:   dtu.PermRW,
	}
	k.insertCap(p, c)
	return sysReply{Sel: c.Sel}
}

func (k *Kernel) sysActivate(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	c := k.lookupSel(p, req.VPE, req.Sel)
	if c == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if c.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	k.exec(p, k.sys.Cost.EPConfig)
	// Capture the capability's payload before the round trip below releases
	// the CPU: the DTU is configured from the state observed at lookup time,
	// and the slab slot may be recycled while this thread is parked.
	object, perm := c.Object, c.Perm
	// Configuring a remote DTU costs a NoC round trip.
	rt := k.sys.Net.Latency(k.pe, v.PE, 32) + k.sys.Net.Latency(v.PE, k.pe, 16)
	k.releaseCPU()
	p.Sleep(rt)
	k.acquireCPU(p)
	switch obj := object.(type) {
	case *cap.MemObject:
		must(v.dtu.ConfigureMem(k.dtu, req.EP, obj.PE, obj.Off, obj.Size, perm&obj.Perm))
	case *cap.SendObject:
		must(v.dtu.ConfigureSend(k.dtu, req.EP, obj.DstPE, obj.DstEP, obj.Credits, obj.Label))
	default:
		return sysReply{Err: ErrBadArgs}
	}
	if v.activeEPs == nil {
		v.activeEPs = make(map[int]cap.Selector)
	}
	v.activeEPs[req.EP] = req.Sel
	return sysReply{}
}

// sysExit revokes all capabilities of the exiting VPE. Roots owned by the
// VPE are revoked recursively; capabilities obtained from others are
// unlinked from their parents.
func (k *Kernel) sysExit(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	v.exited = true
	for {
		caps := k.store.VPECaps(req.VPE)
		if len(caps) == 0 {
			break
		}
		revoked := false
		for _, c := range caps {
			if c.Marked {
				continue
			}
			k.revokeSubtree(p, c)
			revoked = true
			break // the store changed; re-list
		}
		if !revoked {
			break // everything left is already in revocation
		}
	}
	k.sys.peToVPE[v.PE] = nil
	return sysReply{}
}
