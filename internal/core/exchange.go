package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/sim"
)

// Capability exchange (paper §4.3.2). Obtain and delegate are the two
// capability-modifying operations besides revoke. Group-internal exchanges
// run entirely at one kernel; group-spanning ones use inter-kernel calls.
// Delegation across groups uses a two-way handshake so a capability never
// becomes usable at the receiver while its parent link does not exist yet
// (the "Invalid" interference case of Table 2); obtains that race with the
// requester's death leave an orphan that is reaped through a notification
// (the "Orphaned" case).

// deriveObject produces the kernel object for a child capability derived
// from parent's object. Deriving from a receive gate yields a send
// capability to it (connection establishment, paper Fig. 3); everything
// else is shared by reference.
func deriveObject(obj cap.Object) cap.Object {
	switch o := obj.(type) {
	case *cap.RecvObject:
		return &cap.SendObject{DstPE: o.PE, DstEP: o.EP, Credits: 1}
	default:
		return obj
	}
}

// kernelOfVPE resolves the kernel managing a VPE, charging a DDL decode.
func (k *Kernel) kernelOfVPE(p *sim.Proc, id int) (*Kernel, Errno) {
	k.exec(p, k.sys.Cost.DDLDecode)
	if id < 0 || id >= len(k.sys.vpes) {
		return nil, ErrVPEGone
	}
	return k.sys.vpes[id].kernel, OK
}

// --- obtain --------------------------------------------------------------

func (k *Kernel) sysObtainFrom(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	owner, errno := k.kernelOfVPE(p, req.TargetVPE)
	if errno != OK {
		return sysReply{Err: errno}
	}
	if owner == k {
		return k.obtainLocal(p, v, req.TargetVPE, req.TargetSel)
	}
	return k.obtainSpanning(p, v, owner, req.TargetVPE, req.TargetSel)
}

// obtainLocal handles an obtain where both VPEs are in this kernel's group.
// Overlapping exchanges serialize here because this kernel owns both
// capability spaces (the "Serialized" case of Table 2).
func (k *Kernel) obtainLocal(p *sim.Proc, v *VPE, srcVPE int, srcSel cap.Selector) sysReply {
	src := k.lookupSel(p, srcVPE, srcSel)
	if src == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if src.Marked {
		// Deny exchanges of capabilities in revocation ("Pointless").
		return sysReply{Err: ErrInRevocation}
	}
	srcV := k.vpeOf(srcVPE)
	if srcV == nil || srcV.exited {
		return sysReply{Err: ErrVPEGone}
	}
	if !k.askVPE(p, srcV, ExchangeQuery{Obtain: true, PeerVPE: v.ID, Sel: srcSel}) {
		return sysReply{Err: ErrDenied}
	}
	// Re-check after the consent round trip: the capability may have been
	// revoked or the requester killed meanwhile.
	if src != k.store.LookupSel(srcVPE, srcSel) || src.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	if v.exited {
		return sysReply{Err: ErrVPEGone}
	}
	obj := deriveObject(src.Object)
	child := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, obj.ObjType()),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: obj,
		Perm:   src.Perm,
		Parent: src.Key,
	}
	src.AddChild(child.Key)
	k.exec(p, k.sys.Cost.CapLink)
	k.insertCap(p, child)
	k.stats.Obtains++
	return sysReply{Sel: child.Sel}
}

// inflightObtain tracks one spanning obtain whose reply is still in flight.
// The owner links the pre-agreed child key before its reply reaches us, so a
// revocation can race the reply: the revoke request for the not-yet-inserted
// key arrives here, finds nothing, and is confirmed as already revoked —
// after which the owner deletes the parent. The tombstone makes the late (or
// dedup-replayed) reply discard the child instead of inserting an orphan.
type inflightObtain struct {
	revoked bool
}

// exchangeID names an in-flight spanning exchange by the child-key fields
// both sides know before the reply: creator PE, creator VPE and object id.
// Object ids are minted per (pe, vpe) across all types (ddl.Generator), so
// the triple identifies exactly one eventual key.
func exchangeID(pe, vpe int, object uint64) uint64 {
	return uint64(pe)<<(ddl.VPEBits+ddl.ObjectBits) |
		uint64(vpe)<<ddl.ObjectBits | object
}

// obtainSpanning runs the distributed obtain: the owner kernel links the
// (pre-agreed) child key under the source capability and returns the object;
// this kernel then creates the child. If the requester died while the
// inter-kernel call was in flight, the child at the owner is an orphan and
// a notification removes it (paper §4.3.2, case 1).
func (k *Kernel) obtainSpanning(p *sim.Proc, v *VPE, owner *Kernel, srcVPE int, srcSel cap.Selector) sysReply {
	objID := k.gen.NextID(v.PE, v.ID)
	// Register before sending: the owner cannot link (and thus revoke-walk)
	// the child key before it has seen this request.
	exID := exchangeID(v.PE, v.ID, objID)
	po := &inflightObtain{}
	k.inflightObtains[exID] = po
	k.exec(p, k.sys.Cost.IKCMarshal)
	rep := k.ikCall(p, owner.id, &ikcRequest{
		Kind:     ikcObtain,
		VPE:      srcVPE,
		Sel:      srcSel,
		ChildPE:  v.PE,
		ChildVPE: v.ID,
		ChildObj: objID,
	})
	delete(k.inflightObtains, exID)
	if rep.Err != OK {
		return sysReply{Err: rep.Err}
	}
	childKey := ddl.NewKey(v.PE, v.ID, rep.Object.ObjType(), objID)
	if po.revoked {
		// A revocation consumed the child key while the reply was in
		// flight: this kernel already confirmed the key as gone and the
		// owner deleted the parent subtree. Inserting now would leak an
		// unreachable orphan.
		return sysReply{Err: ErrInRevocation}
	}
	if v.exited {
		// Orphaned: the owner linked a child that will never exist here.
		k.stats.Orphans++
		k.notifyUnlink(p, owner.id, rep.Key, childKey)
		return sysReply{Err: ErrVPEGone}
	}
	child := &cap.Capability{
		Key:    childKey,
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: rep.Object,
		Perm:   rep.Perm,
		Parent: rep.Key,
	}
	k.insertCap(p, child)
	k.stats.Obtains++
	return sysReply{Sel: child.Sel}
}

// handleObtainReq runs at the owner kernel: consent, link the child key,
// return the object.
func (k *Kernel) handleObtainReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	src := k.lookupSel(p, req.VPE, req.Sel)
	if src == nil {
		return &ikcReply{Err: ErrNoSuchCap}
	}
	if src.Marked {
		return &ikcReply{Err: ErrInRevocation}
	}
	srcV := k.vpeOf(req.VPE)
	if srcV == nil || srcV.exited {
		return &ikcReply{Err: ErrVPEGone}
	}
	if !k.askVPE(p, srcV, ExchangeQuery{Obtain: true, PeerVPE: req.ChildVPE, Sel: req.Sel}) {
		return &ikcReply{Err: ErrDenied}
	}
	// Re-check: a revocation may have started during the consent round trip.
	if src != k.store.LookupSel(req.VPE, req.Sel) || src.Marked {
		return &ikcReply{Err: ErrInRevocation}
	}
	obj := deriveObject(src.Object)
	childKey := ddl.NewKey(req.ChildPE, req.ChildVPE, obj.ObjType(), req.ChildObj)
	src.AddChild(childKey)
	k.exec(p, k.sys.Cost.CapLink+k.sys.Cost.IKCMarshal)
	return &ikcReply{Key: src.Key, Object: obj, Perm: src.Perm}
}

// handleUnlinkChild removes an orphaned child link (notification; no
// reply).
func (k *Kernel) handleUnlinkChild(p *sim.Proc, req *ikcRequest) {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	parent := k.store.Lookup(req.Key)
	if parent == nil {
		return // parent revoked meanwhile; nothing to clean
	}
	parent.RemoveChild(req.Child)
	k.exec(p, k.sys.Cost.CapLink)
	k.stats.Orphans++
}

// --- delegate ------------------------------------------------------------

func (k *Kernel) sysDelegateTo(p *sim.Proc, req *sysRequest) sysReply {
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
	dst, errno := k.kernelOfVPE(p, req.TargetVPE)
	if errno != OK {
		return sysReply{Err: errno}
	}
	if dst == k {
		return k.delegateLocal(p, v, c, req.TargetVPE)
	}
	return k.delegateSpanning(p, v, c, dst, req.TargetVPE)
}

func (k *Kernel) delegateLocal(p *sim.Proc, v *VPE, c *cap.Capability, dstVPE int) sysReply {
	dstV := k.vpeOf(dstVPE)
	if dstV == nil || dstV.exited {
		return sysReply{Err: ErrVPEGone}
	}
	// The consent round trip is a preemption point and the store compacts
	// removed slots, so re-resolve the parent by key afterwards.
	cKey := c.Key
	if !k.askVPE(p, dstV, ExchangeQuery{Obtain: false, PeerVPE: v.ID}) {
		return sysReply{Err: ErrDenied}
	}
	cur := k.store.Lookup(cKey)
	if cur == nil || cur.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	if dstV.exited {
		return sysReply{Err: ErrVPEGone}
	}
	obj := deriveObject(cur.Object)
	child := &cap.Capability{
		Key:    k.mintKey(dstV.PE, dstV.ID, obj.ObjType()),
		Owner:  dstV.ID,
		Sel:    k.store.AllocSel(dstV.ID),
		Object: obj,
		Perm:   cur.Perm,
		Parent: cKey,
	}
	cur.AddChild(child.Key)
	k.exec(p, k.sys.Cost.CapLink)
	k.insertCap(p, child)
	k.stats.Delegates++
	return sysReply{Sel: child.Sel}
}

// delegateSpanning runs the two-way handshake (paper §4.3.2, case 2):
//  1. ask the receiver's kernel to prepare (but not insert) the child;
//  2. link the child under the local parent;
//  3. acknowledge, upon which the receiver's kernel inserts the child.
//
// Step 2 re-validates the parent so a delegator killed (and revoked) during
// step 1 cannot leave a valid child behind — the "Invalid" case.
func (k *Kernel) delegateSpanning(p *sim.Proc, v *VPE, c *cap.Capability, dst *Kernel, dstVPE int) sysReply {
	parentKey := c.Key
	obj := deriveObject(c.Object)
	k.exec(p, k.sys.Cost.IKCMarshal)
	rep := k.ikCall(p, dst.id, &ikcRequest{
		Kind:   ikcDelegate,
		Key:    parentKey,
		VPE:    dstVPE,
		Object: obj,
		Perm:   c.Perm,
	})
	if rep.Err != OK {
		return sysReply{Err: rep.Err}
	}
	childKey := rep.Key
	// Two-way handshake step 2: re-validate the parent.
	k.exec(p, k.sys.Cost.CapLookup)
	cur := k.store.Lookup(parentKey)
	if cur == nil || cur.Marked || v.exited {
		k.ikCall(p, dst.id, &ikcRequest{Kind: ikcDelegateAck, Child: childKey, Ok: false})
		if cur == nil {
			return sysReply{Err: ErrNoSuchCap}
		}
		return sysReply{Err: ErrInRevocation}
	}
	cur.AddChild(childKey)
	k.exec(p, k.sys.Cost.CapLink)
	ack := k.ikCall(p, dst.id, &ikcRequest{Kind: ikcDelegateAck, Child: childKey, Ok: true})
	if ack.Err != OK {
		// The receiver died before insertion: remove the orphaned link.
		k.exec(p, k.sys.Cost.CapLink)
		if again := k.store.Lookup(parentKey); again != nil {
			again.RemoveChild(childKey)
		}
		k.stats.Orphans++
		return sysReply{Err: ack.Err}
	}
	k.stats.Delegates++
	return sysReply{}
}

// handleDelegateReq runs at the receiver's kernel: consent, prepare the
// child capability without inserting it, and return its key. The reply may
// ride a reply envelope; the ack that depends on it is only sent by the
// delegator after that envelope is demuxed, so the pendingDelegations
// entry is always in place before the ack can arrive.
func (k *Kernel) handleDelegateReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	dstV := k.vpeOf(req.VPE)
	if dstV == nil || dstV.exited {
		return &ikcReply{Err: ErrVPEGone}
	}
	inc := k.incarnation
	if !k.askVPE(p, dstV, ExchangeQuery{Obtain: false, PeerVPE: req.VPE}) {
		return &ikcReply{Err: ErrDenied}
	}
	if k.incarnation != inc {
		// This thread was parked across a crash recovery: the rejoin reset
		// wiped the pending-delegation table, and the originator's future
		// aborted with ErrPeerDead — an entry created now could never be
		// acknowledged and would leak forever (rejoin.go).
		return &ikcReply{Err: ErrPeerDead}
	}
	childKey := k.mintKey(dstV.PE, dstV.ID, req.Object.ObjType())
	child := &cap.Capability{
		Key:    childKey,
		Owner:  dstV.ID,
		Object: req.Object,
		Perm:   req.Perm,
		Parent: req.Key,
	}
	k.exec(p, k.sys.Cost.CapCreate)
	k.pendingDelegations.Put(childKey, child)
	return &ikcReply{Key: childKey}
}

// handleDelegateAck finishes the handshake at the receiver's kernel.
func (k *Kernel) handleDelegateAck(p *sim.Proc, req *ikcRequest) *ikcReply {
	child, _ := k.pendingDelegations.Get(req.Child)
	k.pendingDelegations.Delete(req.Child)
	if child == nil {
		return &ikcReply{Err: ErrNoSuchCap}
	}
	if !req.Ok {
		// Delegator aborted (parent revoked meanwhile): discard.
		return &ikcReply{}
	}
	dstV := k.vpeOf(child.Owner)
	if dstV == nil || dstV.exited {
		// Orphaned on the receiver side: report back for unlinking.
		return &ikcReply{Err: ErrVPEGone}
	}
	child.Sel = k.store.AllocSel(child.Owner)
	k.insertCap(p, child)
	k.stats.Delegates++
	return &ikcReply{}
}
