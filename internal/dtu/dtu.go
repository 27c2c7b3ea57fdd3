// Package dtu models the data transfer unit (DTU), the hardware component
// that M3 and SemperOS place next to every processing element (PE).
//
// The DTU is the PE's only gateway to the rest of the machine: it exchanges
// messages with other DTUs and performs remote memory accesses, both over
// the NoC. Controlling a PE's DTU therefore suffices to isolate the PE
// (NoC-level isolation). Following the paper's evaluation platform, each DTU
// provides 16 endpoints; receive endpoints hold up to 32 message slots; a
// message arriving at a full endpoint is lost, which is why the kernels
// bound their in-flight messages.
//
// Endpoints are configured only by privileged DTUs. At boot all DTUs are
// privileged; the kernel downgrades every user DTU and remains the only
// privileged one, mirroring the M3 boot protocol.
package dtu

import (
	"errors"
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Architectural constants of the evaluation platform (paper §5.1).
const (
	// NumEndpoints is the number of endpoints per DTU.
	NumEndpoints = 16
	// DefaultSlots is the number of message slots per receive endpoint.
	DefaultSlots = 32
	// headerBytes is the wire overhead charged per message.
	headerBytes = 32
)

// Errors returned by DTU operations.
var (
	ErrNoCredits     = errors.New("dtu: no credits on send endpoint")
	ErrBadEndpoint   = errors.New("dtu: endpoint not configured for this operation")
	ErrNotPrivileged = errors.New("dtu: operation requires a privileged DTU")
	ErrOutOfBounds   = errors.New("dtu: memory access out of bounds")
	ErrNoPerm        = errors.New("dtu: missing permission on memory endpoint")
)

// Perm is a permission bit set for memory endpoints and capabilities.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	// PermRW is the common read-write combination.
	PermRW = PermR | PermW
)

func (p Perm) String() string {
	buf := []byte("---")
	if p&PermR != 0 {
		buf[0] = 'r'
	}
	if p&PermW != 0 {
		buf[1] = 'w'
	}
	if p&PermX != 0 {
		buf[2] = 'x'
	}
	return string(buf)
}

// EpKind is the configured role of an endpoint.
type EpKind uint8

// Endpoint kinds.
const (
	EpInvalid EpKind = iota
	EpSend
	EpRecv
	EpMem
)

func (k EpKind) String() string {
	switch k {
	case EpSend:
		return "send"
	case EpRecv:
		return "recv"
	case EpMem:
		return "mem"
	default:
		return "invalid"
	}
}

// Message is a message delivered to a receive endpoint. It occupies a slot
// until the receiver calls Reply, Ack or Free. Messages that arrived inside
// a coalesced vector (SendVecTo) share one slot: it is freed when the last
// sibling is freed.
//
// A Message is also its own NoC delivery event (see wire), so a message
// transfer allocates the Message and nothing else:
//
//   - Send builds the Message and hands it to the NoC; on arrival it places
//     itself into the destination endpoint.
//   - Reply builds the reply Message, which on arrival returns the request's
//     send credit and places itself into the sender's reply endpoint.
//   - Ack frees the message's slot and sends the acked Message itself back
//     across the NoC as the credit return.
//
// An injected duplicate (noc.Verdict.Dup) arrives as a distinct copy, taken
// when the message is sent, exactly as a duplicated wire transfer would.
type Message struct {
	SrcPE   int
	SrcEP   int
	ReplyEP int // endpoint at the sender that accepts the reply, -1 if none
	Label   uint64
	Payload any
	Size    int

	// dstDTU and dstEP are the receive endpoint the message travels to and
	// then occupies; dstEP is -1 for a reply that only returns a credit.
	dstDTU *DTU
	dstEP  int
	// creditEP is the send endpoint at dstDTU whose credit a reply returns
	// on arrival, -1 for none.
	creditEP int
	freed    bool
	vec      *vecMeta // non-nil for messages of a coalesced vector
}

// wire is a Message in flight: the Action the NoC fires when it arrives.
// The conversion from *Message is free, and keeping Fire off Message itself
// keeps it out of the receiver's API.
type wire Message

// Fire delivers the message. A message that is already freed was acked: it
// is the credit return, and restores the sender's credit.
func (w *wire) Fire() {
	m := (*Message)(w)
	if m.freed {
		m.dstDTU.fabric.dtus[m.SrcPE].restoreCredit(m.SrcEP)
		return
	}
	d := m.dstDTU
	if m.creditEP >= 0 {
		d.restoreCredit(m.creditEP)
	}
	if m.dstEP >= 0 {
		d.deliver(m.dstEP, m)
	}
}

// Duplicate returns a distinct copy of the message in flight, for an
// injected duplicate delivery (noc.Duplicator).
func (w *wire) Duplicate() sim.Action {
	c := *w
	return &c
}

// vecMeta is the shared bookkeeping of one coalesced vector: the siblings
// occupy a single receive slot (the vector is one wire message), released
// when the last of them is freed.
type vecMeta struct {
	remaining int
}

// Handler consumes messages arriving at a receive endpoint.
type Handler func(*Message)

// VecHandler consumes a whole coalesced vector in one call — one delivery
// event and (typically) one consumer-thread handoff per batch instead of
// per message. Endpoints configured with ConfigureRecvVec use it.
type VecHandler func([]*Message)

// VecItem is one element of a coalesced vectored send.
type VecItem struct {
	Payload any
	Size    int
	Label   uint64
}

type endpoint struct {
	kind EpKind

	// send
	dstPE, dstEP int
	credits      int
	maxCredits   int
	label        uint64

	// recv
	slots      int
	used       int
	queue      sim.Queue[*Message] // arrived messages awaiting Fetch/Wait
	handler    Handler
	vecHandler VecHandler

	// mem
	memPE   int
	memOff  uint64
	memSize uint64
	perm    Perm
}

// Stats counts per-DTU activity. Sent/Received count logical messages;
// VecDeliveries counts coalesced vectors delivered (each carrying several
// logical messages in one delivery event and one receive slot) and
// VecItems the logical messages that arrived inside them, so
// VecItems/VecDeliveries is the average coalescing factor this DTU
// observed.
type Stats struct {
	Sent          uint64
	Received      uint64
	Lost          uint64
	MemReads      uint64
	MemWrites     uint64
	VecDeliveries uint64
	VecItems      uint64
	// EPLost breaks Lost down by receive endpoint, so a slot-exhaustion
	// bug names the channel it starved (syscall EPs vs envelope EPs).
	EPLost [NumEndpoints]uint64
}

// DTU is one data transfer unit, attached to PE `pe`.
type DTU struct {
	fabric     *Fabric
	pe         int
	privileged bool
	eps        [NumEndpoints]endpoint
	mem        []byte
	memCap     int // declared local memory size; backing allocated lazily
	stats      Stats
}

// Fabric owns all DTUs of a machine and the NoC connecting them.
type Fabric struct {
	eng  *sim.Engine
	net  *noc.Network
	dtus []*DTU
}

// NewFabric creates a fabric over the given network. One DTU per PE must be
// added with Add before use.
func NewFabric(eng *sim.Engine, net *noc.Network) *Fabric {
	return &Fabric{
		eng:  eng,
		net:  net,
		dtus: make([]*DTU, net.Nodes()),
	}
}

// Add attaches a new DTU (initially privileged) to PE pe with memBytes of
// local memory exposed to remote memory endpoints.
func (f *Fabric) Add(pe int, memBytes int) *DTU {
	if f.dtus[pe] != nil {
		panic(fmt.Sprintf("dtu: PE %d already has a DTU", pe))
	}
	d := &DTU{fabric: f, pe: pe, privileged: true, memCap: memBytes}
	for i := range d.eps {
		d.eps[i].kind = EpInvalid
	}
	f.dtus[pe] = d
	return d
}

// DTU returns the DTU attached to PE pe.
func (f *Fabric) DTU(pe int) *DTU { return f.dtus[pe] }

// Engine returns the fabric's simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Network returns the fabric's NoC.
func (f *Fabric) Network() *noc.Network { return f.net }

// PE returns the PE this DTU is attached to.
func (d *DTU) PE() int { return d.pe }

// Stats returns a snapshot of the DTU's counters.
func (d *DTU) Stats() Stats { return d.stats }

// Privileged reports whether this DTU may configure endpoints.
func (d *DTU) Privileged() bool { return d.privileged }

// Downgrade removes the privileged status. The kernel downgrades all user
// DTUs during boot; only kernel DTUs stay privileged.
func (d *DTU) Downgrade() { d.privileged = false }

// Memory returns the DTU's local memory (nil if none declared). The backing
// storage is allocated on first use: simulations that model data movement as
// time (the paper's methodology) never pay for it.
func (d *DTU) Memory() []byte {
	if d.mem == nil && d.memCap > 0 {
		d.mem = make([]byte, d.memCap)
	}
	return d.mem
}

// MemorySize returns the declared local memory size.
func (d *DTU) MemorySize() int { return d.memCap }

// configuring endpoints ------------------------------------------------

// checkEP panics on out-of-range endpoint indices: that is a programming
// error in the simulation, not a modeled fault.
func checkEP(ep int) {
	if ep < 0 || ep >= NumEndpoints {
		panic(fmt.Sprintf("dtu: endpoint %d out of range", ep))
	}
}

// ConfigureSend sets up a send endpoint targeting (dstPE, dstEP) with the
// given credits. by must be privileged (pass the DTU itself if it is).
func (d *DTU) ConfigureSend(by *DTU, ep, dstPE, dstEP, credits int, label uint64) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	d.eps[ep] = endpoint{kind: EpSend, dstPE: dstPE, dstEP: dstEP, credits: credits, maxCredits: credits, label: label}
	return nil
}

// ConfigureRecv sets up a receive endpoint with the given number of message
// slots (0 means DefaultSlots) and an optional handler. With a handler,
// arriving messages are passed to it; without, they queue for Fetch/Wait.
func (d *DTU) ConfigureRecv(by *DTU, ep, slots int, h Handler) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	d.eps[ep] = endpoint{kind: EpRecv, slots: slots, handler: h}
	return nil
}

// ConfigureRecvVec sets up a receive endpoint whose handler consumes whole
// coalesced vectors (see SendVecTo): one handler call per arriving vector
// instead of one per message. Single messages arriving at the endpoint are
// passed as one-element vectors.
func (d *DTU) ConfigureRecvVec(by *DTU, ep, slots int, h VecHandler) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	d.eps[ep] = endpoint{kind: EpRecv, slots: slots, vecHandler: h}
	return nil
}

// ConfigureMem sets up a memory endpoint granting perm access to
// [off, off+size) in PE memPE's local memory.
func (d *DTU) ConfigureMem(by *DTU, ep, memPE int, off, size uint64, perm Perm) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	d.eps[ep] = endpoint{kind: EpMem, memPE: memPE, memOff: off, memSize: size, perm: perm}
	return nil
}

// Invalidate resets an endpoint. Used when capabilities are revoked: the
// kernel invalidates any endpoint configured from a revoked capability.
func (d *DTU) Invalidate(by *DTU, ep int) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	d.eps[ep] = endpoint{kind: EpInvalid}
	return nil
}

// EpKindOf returns the configured kind of an endpoint.
func (d *DTU) EpKindOf(ep int) EpKind {
	checkEP(ep)
	return d.eps[ep].kind
}

// Credits returns the available credits of a send endpoint.
func (d *DTU) Credits(ep int) int {
	checkEP(ep)
	return d.eps[ep].credits
}

// messaging --------------------------------------------------------------

// Send transmits payload over send endpoint ep. replyEP names the local
// receive endpoint for the reply (-1 if no reply is expected). One credit is
// consumed; it returns when the peer replies or acks.
func (d *DTU) Send(ep int, payload any, size int, replyEP int, label uint64) error {
	checkEP(ep)
	e := &d.eps[ep]
	if e.kind != EpSend {
		return ErrBadEndpoint
	}
	if e.credits <= 0 {
		return ErrNoCredits
	}
	e.credits--
	d.stats.Sent++
	if label == 0 {
		label = e.label
	}
	m := &Message{
		SrcPE:    d.pe,
		SrcEP:    ep,
		ReplyEP:  replyEP,
		Label:    label,
		Payload:  payload,
		Size:     size,
		dstDTU:   d.fabric.dtus[e.dstPE],
		dstEP:    e.dstEP,
		creditEP: -1,
	}
	d.fabric.net.SendAction(d.pe, e.dstPE, size+headerBytes, (*wire)(m))
	return nil
}

// deliver places msg into receive endpoint ep, or drops it if no slot is
// free (the architectural behavior the kernels must avoid by bounding their
// in-flight messages).
func (d *DTU) deliver(ep int, msg *Message) {
	e := &d.eps[ep]
	if e.kind != EpRecv || e.used >= e.slots {
		d.stats.Lost++
		d.stats.EPLost[ep]++
		d.fabric.net.CountLost()
		return
	}
	e.used++
	d.stats.Received++
	if e.vecHandler != nil {
		e.vecHandler([]*Message{msg})
		return
	}
	if e.handler != nil {
		e.handler(msg)
		return
	}
	e.queue.Push(msg)
}

// SendVecTo transmits items as one coalesced transfer into (dstPE, dstEP),
// without a send endpoint: the whole vector is one wire message (one NoC
// event, one receive slot at the destination, one delivery event) that the
// receiver sees as len(items) logical messages. Only privileged DTUs (the
// kernels) may use it — their flow control lives above the DTU, in the
// in-flight message accounting of the inter-kernel protocol, so no send
// credits are consumed. This is the batched-delivery primitive the unified
// IKC transport rides in both directions: request envelopes land on a
// kernel-thread consumer (one handoff per batch), and reply envelopes land
// on an event-context demux whose handler frees each message as it
// completes the matching future, so the shared slot is released within the
// delivery event itself. It cuts the per-message NoC events and consumer
// handoffs that dominate wide fan-outs.
func (d *DTU) SendVecTo(dstPE, dstEP int, items []VecItem) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	checkEP(dstEP)
	if len(items) == 0 {
		return ErrBadEndpoint
	}
	total := headerBytes
	for _, it := range items {
		total += it.Size
	}
	d.stats.Sent += uint64(len(items))
	// Message objects are built per delivery (not per send) so an injected
	// duplicate delivery allocates its own copies; the caller must not
	// mutate items after the call.
	d.fabric.net.Send(d.pe, dstPE, total, func() {
		msgs := make([]*Message, len(items))
		for i, it := range items {
			msgs[i] = &Message{
				SrcPE:   d.pe,
				SrcEP:   -1,
				ReplyEP: -1,
				Label:   it.Label,
				Payload: it.Payload,
				Size:    it.Size,
			}
		}
		d.fabric.dtus[dstPE].deliverVec(dstEP, msgs)
	})
	return nil
}

// deliverVec places a coalesced vector into receive endpoint ep. The vector
// occupies a single slot (it is one wire message); if none is free the
// whole vector is lost. Vec-handler endpoints get one call with all
// messages; plain handlers are invoked per message but still within the
// single delivery event; queue endpoints enqueue everything and wake at
// most one waiter per delivered message.
func (d *DTU) deliverVec(ep int, msgs []*Message) {
	e := &d.eps[ep]
	if e.kind != EpRecv || e.used >= e.slots {
		d.stats.Lost++
		d.stats.EPLost[ep]++
		d.fabric.net.CountLost()
		return
	}
	e.used++
	d.stats.Received += uint64(len(msgs))
	d.stats.VecDeliveries++
	d.stats.VecItems += uint64(len(msgs))
	meta := &vecMeta{remaining: len(msgs)}
	for _, m := range msgs {
		m.dstDTU = d
		m.dstEP = ep
		m.vec = meta
	}
	if e.vecHandler != nil {
		e.vecHandler(msgs)
		return
	}
	if e.handler != nil {
		for _, m := range msgs {
			e.handler(m)
		}
		return
	}
	for _, m := range msgs {
		e.queue.Push(m)
	}
}

// Fetch removes and returns the oldest queued message on receive endpoint
// ep, or nil. The slot stays occupied until Reply or Ack.
func (d *DTU) Fetch(ep int) *Message {
	checkEP(ep)
	e := &d.eps[ep]
	if e.kind != EpRecv {
		return nil
	}
	m, _ := e.queue.TryPop()
	return m
}

// Wait blocks the proc until a message is queued at receive endpoint ep and
// returns it.
func (d *DTU) Wait(p *sim.Proc, ep int) *Message {
	checkEP(ep)
	e := &d.eps[ep]
	if e.kind != EpRecv {
		panic("dtu: Wait on non-recv endpoint")
	}
	return e.queue.Pop(p)
}

// WaitVec blocks the proc until at least one message is queued at receive
// endpoint ep and drains the whole queue — one park/wake cycle (one
// proc handoff) for however many messages have accumulated, the
// consumer-side half of coalesced delivery.
func (d *DTU) WaitVec(p *sim.Proc, ep int) []*Message {
	checkEP(ep)
	e := &d.eps[ep]
	if e.kind != EpRecv {
		panic("dtu: WaitVec on non-recv endpoint")
	}
	out := []*Message{e.queue.Pop(p)}
	for m, ok := e.queue.TryPop(); ok; m, ok = e.queue.TryPop() {
		out = append(out, m)
	}
	return out
}

// Reply frees msg's slot and sends a reply back to the sender's reply
// endpoint, returning the sender's credit along with it.
func (d *DTU) Reply(msg *Message, payload any, size int) {
	if msg.dstDTU != d {
		panic("dtu: Reply on foreign message")
	}
	d.free(msg)
	if msg.SrcEP < 0 && msg.ReplyEP < 0 {
		// EP-less sender (SendVecTo) and nowhere to deliver the payload:
		// there is no credit to return, so sending anything would be pure
		// wire noise.
		return
	}
	// Only SendVecTo builds vector messages, and they have neither a send
	// nor a reply endpoint, so msg is a single message and its credit
	// always returns.
	reply := &Message{
		SrcPE:    d.pe,
		SrcEP:    msg.dstEP,
		ReplyEP:  -1,
		Payload:  payload,
		Size:     size,
		dstDTU:   d.fabric.dtus[msg.SrcPE],
		dstEP:    msg.ReplyEP,
		creditEP: msg.SrcEP,
	}
	d.fabric.net.SendAction(d.pe, msg.SrcPE, size+headerBytes, (*wire)(reply))
}

// Ack frees msg's slot without a payload reply; the sender's credit is
// returned by a (zero-byte) credit message. Messages from an EP-less
// coalesced vector (SendVecTo) consumed no send credit, so acking them
// sends nothing — the ack degenerates to Free.
func (d *DTU) Ack(msg *Message) {
	if msg.dstDTU != d {
		panic("dtu: Ack on foreign message")
	}
	d.free(msg)
	if msg.SrcEP < 0 {
		return
	}
	// msg is freed now, so it travels back as the credit return (wire.Fire).
	d.fabric.net.SendAction(d.pe, msg.SrcPE, headerBytes, (*wire)(msg))
}

// Free releases msg's slot without any message back to the sender. It is
// for privileged consumers (the kernels) whose flow control lives above the
// DTU: returning a credit for an EP-less SendVecTo transfer would be
// meaningless traffic.
func (d *DTU) Free(msg *Message) {
	if msg.dstDTU != d {
		panic("dtu: Free on foreign message")
	}
	d.free(msg)
}

func (d *DTU) free(msg *Message) {
	if msg.freed {
		panic("dtu: message freed twice")
	}
	msg.freed = true
	if msg.vec != nil {
		msg.vec.remaining--
		if msg.vec.remaining > 0 {
			return // siblings still hold the shared slot
		}
	}
	e := &d.eps[msg.dstEP]
	if e.used > 0 {
		e.used--
	}
}

func (d *DTU) restoreCredit(ep int) {
	if ep < 0 || ep >= NumEndpoints {
		return // EP-less sender (SendVecTo): no credit to restore
	}
	e := &d.eps[ep]
	if e.kind == EpSend && e.credits < e.maxCredits {
		e.credits++
	}
}

// remote memory ----------------------------------------------------------

// memAccess validates a request against endpoint ep and returns the target.
func (d *DTU) memAccess(ep int, off, size uint64, need Perm) (*DTU, uint64, error) {
	checkEP(ep)
	e := &d.eps[ep]
	if e.kind != EpMem {
		return nil, 0, ErrBadEndpoint
	}
	if e.perm&need != need {
		return nil, 0, ErrNoPerm
	}
	if off+size > e.memSize || off+size < off {
		return nil, 0, ErrOutOfBounds
	}
	target := d.fabric.dtus[e.memPE]
	abs := e.memOff + off
	if abs+size > uint64(target.memCap) {
		return nil, 0, ErrOutOfBounds
	}
	return target, abs, nil
}

// ReadMem reads size bytes at offset off through memory endpoint ep,
// blocking the proc for the NoC round trip plus data transfer time.
func (d *DTU) ReadMem(p *sim.Proc, ep int, off, size uint64) ([]byte, error) {
	target, abs, err := d.memAccess(ep, off, size, PermR)
	if err != nil {
		return nil, err
	}
	d.stats.MemReads++
	// Request travels to the memory, data travels back.
	lat := d.fabric.net.Latency(d.pe, target.pe, headerBytes) +
		d.fabric.net.Latency(target.pe, d.pe, int(size))
	p.Sleep(lat)
	buf := make([]byte, size)
	copy(buf, target.Memory()[abs:abs+size])
	return buf, nil
}

// WriteMem writes data at offset off through memory endpoint ep, blocking
// the proc for the transfer plus acknowledgement.
func (d *DTU) WriteMem(p *sim.Proc, ep int, off uint64, data []byte) error {
	size := uint64(len(data))
	target, abs, err := d.memAccess(ep, off, size, PermW)
	if err != nil {
		return err
	}
	d.stats.MemWrites++
	lat := d.fabric.net.Latency(d.pe, target.pe, int(size)) +
		d.fabric.net.Latency(target.pe, d.pe, headerBytes)
	p.Sleep(lat)
	copy(target.Memory()[abs:abs+size], data)
	return nil
}
