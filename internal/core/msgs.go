package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
)

// Kernel DTU endpoint layout. User-PE endpoints live in vpe.go; these are
// the receive endpoints every kernel configures at boot (endpoints 0 and 1
// are left unconfigured so the kernel layout cannot be confused with the
// user layout, whose syscall channel occupies them).
const (
	// kernelSyscallEP0 is the first of the SyscallRecvEPs syscall receive
	// endpoints (kernelSyscallEP0 .. kernelSyscallEP0+SyscallRecvEPs-1);
	// a VPE's syscall send endpoint targets one of them by PE number.
	kernelSyscallEP0 = 2
	// ikcBatchEP receives coalesced request envelopes (ikcBatch). Its slot
	// budget covers the in-flight bound of every peer: one envelope is one
	// wire message and occupies one slot, mirroring the guarantee the
	// in-flight accounting gives direct sends.
	ikcBatchEP = kernelSyscallEP0 + SyscallRecvEPs
	// ikcReplyEP receives coalesced reply envelopes. The demux frees each
	// carried message as it completes the matching pending future, so the
	// shared slot is released within the delivery event itself.
	ikcReplyEP = ikcBatchEP + 1
)

// Errno is the error code space shared by system calls and inter-kernel
// calls.
type Errno uint8

// Error codes.
const (
	OK Errno = iota
	ErrNoSuchCap
	ErrDenied
	ErrInRevocation
	ErrVPEGone
	ErrNoService
	ErrBadArgs
	ErrOutOfMem
	ErrExists
	// ErrPeerDead is the degraded-mode answer for requests to a kernel
	// that exhausted its retry budget (see reliability.go): the future
	// completes with this error instead of hanging.
	ErrPeerDead
)

func (e Errno) Error() string {
	switch e {
	case OK:
		return "ok"
	case ErrNoSuchCap:
		return "no such capability"
	case ErrDenied:
		return "denied"
	case ErrInRevocation:
		return "capability is being revoked"
	case ErrVPEGone:
		return "VPE has exited"
	case ErrNoService:
		return "no such service"
	case ErrBadArgs:
		return "bad arguments"
	case ErrOutOfMem:
		return "out of memory"
	case ErrExists:
		return "already exists"
	case ErrPeerDead:
		return "peer kernel dead"
	default:
		return "unknown error"
	}
}

// Err converts an Errno into an error (nil for OK).
func (e Errno) Err() error {
	if e == OK {
		return nil
	}
	return e
}

// sysKind enumerates the system calls.
type sysKind uint8

const (
	sysAllocMem sysKind = iota
	sysDeriveMem
	sysObtainFrom
	sysDelegateTo
	sysRevoke
	sysCreateRgate
	sysCreateSession
	sysObtainSess
	sysDelegateSess
	sysActivate
	sysRegisterService
	sysExit
	sysNoop
)

func (k sysKind) String() string {
	names := [...]string{
		"allocmem", "derivemem", "obtainfrom", "delegateto", "revoke",
		"creatergate", "createsession", "obtainsess", "delegatesess",
		"activate", "registerservice", "exit", "noop",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// sysRequest is the payload of a syscall message from a VPE to its kernel.
type sysRequest struct {
	Kind sysKind
	VPE  int // issuing VPE

	Sel       cap.Selector // primary capability selector
	TargetVPE int          // peer VPE for direct exchanges
	TargetSel cap.Selector // peer selector for direct exchanges
	Size      uint64       // allocation size / derive length
	Off       uint64       // derive offset
	EP        int          // endpoint index for activate / rgate
	Perm      dtu.Perm
	Name      string // service name
	Args      any    // opaque protocol arguments (service-defined)
}

// sysReply is the kernel's answer to a sysRequest.
type sysReply struct {
	Err  Errno
	Sel  cap.Selector
	Args any
}

// sysCall is a VPE's syscall frame, embedded in the VPE: the VPE writes the
// request, sends the frame as the syscall message's payload, and the kernel
// answers by writing the reply into the same frame and sending it back. One
// frame per VPE suffices because a VPE has a single syscall credit, so at
// most one call is in flight, and the fault injector never touches user-PE
// links, so the frame is never delivered twice. busy guards the first
// property against a second proc issuing a call for the same VPE.
type sysCall struct {
	req  sysRequest
	rep  sysReply
	busy bool
}

// ikcKind enumerates the inter-kernel calls. They fall into the paper's
// three functional groups: startup/shutdown (handled at boot in this
// implementation), service connections (ikcSession, ikcObtainSess,
// ikcDelegateSess) and capability exchange/revocation (the rest).
type ikcKind uint8

const (
	ikcObtain ikcKind = iota
	ikcDelegate
	ikcDelegateAck
	ikcRevoke
	ikcRevokeReply // carried as a reply, listed for stats symmetry
	ikcUnlinkChild
	ikcSession
	ikcObtainSess
	ikcDelegateSess
	ikcRevokeBatch
	// ikcRejoin is the recovery handshake: a kernel that crashed and came
	// back broadcasts it (with its bumped incarnation number) so every peer
	// clears its dead verdict and discards state keyed by the dead
	// incarnation (rejoin.go).
	ikcRejoin
)

func (k ikcKind) String() string {
	names := [...]string{
		"obtain", "delegate", "delegate-ack", "revoke", "revoke-reply",
		"unlink-child", "session", "obtain-sess", "delegate-sess",
		"revoke-batch", "rejoin",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// ikcRequest is the payload of an inter-kernel request message.
type ikcRequest struct {
	Seq  uint64
	From int // sender kernel id
	// Inc is the sender's incarnation number at stamp time. A receiver
	// running the reliable layer rejects requests from an incarnation older
	// than the one it has observed — a stale retransmit from before the
	// sender's crash — and implicitly admits a newer one (rejoin.go).
	Inc  uint32
	Kind ikcKind

	Key    ddl.Key      // primary capability (owner side)
	Keys   []ddl.Key    // batched revocation targets (ikcRevokeBatch)
	Child  ddl.Key      // child capability key (acks, unlinks, revokes)
	VPE    int          // VPE the operation acts for
	Sel    cap.Selector // selector at the owner side (direct exchange)
	Perm   dtu.Perm
	Ident  uint64 // session identifier for session-scoped calls
	Ok     bool   // delegate-ack verdict
	Object cap.Object
	Args   any

	// ChildPE/ChildVPE/ChildObj are the requester-minted child identity;
	// the owner composes the final child key from them once the object type
	// is known, so both kernels agree on the key with one round trip.
	ChildPE  int
	ChildVPE int
	ChildObj uint64

	// to is the kernel a direct send delivers the request to (requestWire).
	to *Kernel
}

// ikcBatch is the unified transport's aggregation envelope: N requests of
// one kind from one kernel to another, travelling as one DTU wire message
// (the requests are the items of a single coalesced vector — one NoC
// transfer, one receive slot, one delivery event and one kernel-thread
// pickup at the destination). The sender's flush assembles it from a
// per-destination queue (transport.go, flushLocked) and the receiver
// reassembles it from the delivered vector (ikc.go, recvBatch), which also
// verifies the one-kind invariant. The requests keep their individual
// sequence numbers, so each is answered by its own reply; only the request
// direction is coalesced.
type ikcBatch struct {
	From int
	Kind ikcKind
	Reqs []*ikcRequest
}

// items lays the envelope out as the coalesced DTU vector it travels in.
func (b *ikcBatch) items() []dtu.VecItem {
	items := make([]dtu.VecItem, len(b.Reqs))
	for i, r := range b.Reqs {
		items[i] = dtu.VecItem{Payload: r, Size: ikcBatchedReqBytes}
	}
	return items
}

// ikcReply is the payload of an inter-kernel reply message. Replies are
// matched to their request by sequence number. A reply either travels as
// its own wire message (the unbatched transport) or rides a reply
// envelope: the sink (transport.go, flushReplies) coalesces the replies
// queued for one destination kernel into a single vectored DTU transfer
// into the destination's ikcReplyEP, where recvReplyVec demuxes them — in
// enqueue order — into the pending per-request futures.
type ikcReply struct {
	Seq  uint64
	From int
	// Inc echoes the request's incarnation stamp, so a requester that
	// crashed and recovered in between rejects the late reply — it answers
	// a question asked by the dead incarnation (rejoin.go).
	Inc uint32
	Err Errno

	Key    ddl.Key
	Object cap.Object
	Perm   dtu.Perm
	Ident  uint64
	Args   any

	// to is the kernel a direct send delivers the reply to (replyWire).
	to *Kernel
}

// ExchangeQuery is delivered to a VPE when another VPE wants to exchange a
// capability with it (paper Fig. 3, steps A.2/B.3: the kernel asks the
// other party for consent).
type ExchangeQuery struct {
	// Obtain is true for an obtain (the peer takes a capability from this
	// VPE), false for a delegate (the peer pushes one to this VPE).
	Obtain bool
	// PeerVPE is the global id of the initiating VPE.
	PeerVPE int
	// Sel is the local selector involved (source for obtain).
	Sel cap.Selector
}

// ExchangeAnswer is the VPE's verdict on an ExchangeQuery.
type ExchangeAnswer struct {
	Accept bool
}
