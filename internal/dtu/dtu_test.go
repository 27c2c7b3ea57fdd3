package dtu

import (
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/sim"
)

func newFabric(t *testing.T, nodes int) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	n := noc.New(e, noc.DefaultConfig(nodes))
	f := NewFabric(e, n)
	for i := 0; i < nodes; i++ {
		f.Add(i, 1<<16)
	}
	return e, f
}

func TestSendReceive(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	if err := b.ConfigureRecv(b, 2, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.ConfigureSend(a, 1, 1, 2, 4, 7); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, "hello", 16, -1, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	m := b.Fetch(2)
	if m == nil {
		t.Fatal("no message delivered")
	}
	if m.Payload.(string) != "hello" || m.SrcPE != 0 || m.Label != 7 {
		t.Fatalf("bad message: %+v", m)
	}
}

func TestCreditsConsumedAndRestoredOnReply(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureRecv(a, 3, 4, nil) // reply EP
	a.ConfigureSend(a, 1, 1, 2, 2, 0)

	a.Send(1, "req", 16, 3, 0)
	if a.Credits(1) != 1 {
		t.Fatalf("credits after send = %d, want 1", a.Credits(1))
	}
	e.Run()
	m := b.Fetch(2)
	b.Reply(m, "resp", 16)
	e.Run()
	if a.Credits(1) != 2 {
		t.Fatalf("credits after reply = %d, want 2", a.Credits(1))
	}
	r := a.Fetch(3)
	if r == nil || r.Payload.(string) != "resp" {
		t.Fatalf("bad reply: %+v", r)
	}
}

func TestCreditsExhausted(t *testing.T) {
	_, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 1, 0)
	if err := a.Send(1, 1, 8, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 2, 8, -1, 0); err != ErrNoCredits {
		t.Fatalf("err = %v, want ErrNoCredits", err)
	}
}

func TestAckRestoresCredit(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 1, 0)
	a.Send(1, "x", 8, -1, 0)
	e.Run()
	b.Ack(b.Fetch(2))
	e.Run()
	if a.Credits(1) != 1 {
		t.Fatalf("credits = %d, want 1", a.Credits(1))
	}
}

func TestMessageLossOnFullEndpoint(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 2, nil) // only 2 slots
	a.ConfigureSend(a, 1, 1, 2, 8, 0)
	for i := 0; i < 4; i++ {
		a.Send(1, i, 8, -1, 0)
	}
	e.Run()
	if got := b.Stats().Lost; got != 2 {
		t.Fatalf("lost = %d, want 2", got)
	}
	if got := b.Stats().Received; got != 2 {
		t.Fatalf("received = %d, want 2", got)
	}
}

func TestHandlerDelivery(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	var got []*Message
	b.ConfigureRecv(b, 2, 4, func(m *Message) { got = append(got, m) })
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	a.Send(1, "via-handler", 8, -1, 0)
	e.Run()
	if len(got) != 1 || got[0].Payload.(string) != "via-handler" {
		t.Fatalf("handler got %v", got)
	}
	if b.Fetch(2) != nil {
		t.Fatal("handled message also queued")
	}
}

func TestWaitBlocksProc(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	var at sim.Time
	e.Spawn("recv", func(p *sim.Proc) {
		m := b.Wait(p, 2)
		at = p.Now()
		b.Ack(m)
	})
	e.Schedule(100, func() { a.Send(1, "late", 8, -1, 0) })
	e.Run()
	if at <= 100 {
		t.Fatalf("received at %d, want after 100", at)
	}
}

func TestPrivilegeEnforcement(t *testing.T) {
	_, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	a.Downgrade()
	if err := b.ConfigureRecv(a, 2, 4, nil); err != ErrNotPrivileged {
		t.Fatalf("err = %v, want ErrNotPrivileged", err)
	}
	// A privileged DTU may configure another DTU's endpoints.
	if err := a.ConfigureRecv(b, 2, 4, nil); err != nil {
		t.Fatalf("privileged remote configure failed: %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	_, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureSend(a, 1, 1, 2, 4, 0)
	if a.EpKindOf(1) != EpSend {
		t.Fatal("endpoint not configured")
	}
	a.Invalidate(a, 1)
	if a.EpKindOf(1) != EpInvalid {
		t.Fatal("endpoint not invalidated")
	}
	if err := a.Send(1, "x", 8, -1, 0); err != ErrBadEndpoint {
		t.Fatalf("err = %v, want ErrBadEndpoint", err)
	}
}

func TestMemReadWrite(t *testing.T) {
	e, f := newFabric(t, 4)
	a, m := f.DTU(0), f.DTU(3)
	copy(m.Memory()[100:], []byte("persistent"))
	a.ConfigureMem(a, 5, 3, 100, 64, PermRW)
	var got []byte
	e.Spawn("reader", func(p *sim.Proc) {
		var err error
		got, err = a.ReadMem(p, 5, 0, 10)
		if err != nil {
			t.Errorf("ReadMem: %v", err)
		}
		if err := a.WriteMem(p, 5, 10, []byte("XY")); err != nil {
			t.Errorf("WriteMem: %v", err)
		}
	})
	e.Run()
	if string(got) != "persistent" {
		t.Fatalf("read %q", got)
	}
	if string(m.Memory()[110:112]) != "XY" {
		t.Fatalf("write not visible: %q", m.Memory()[110:112])
	}
	if e.Now() == 0 {
		t.Fatal("memory access took no simulated time")
	}
}

func TestMemPermissionDenied(t *testing.T) {
	e, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureMem(a, 5, 3, 0, 64, PermR)
	e.Spawn("w", func(p *sim.Proc) {
		if err := a.WriteMem(p, 5, 0, []byte("no")); err != ErrNoPerm {
			t.Errorf("err = %v, want ErrNoPerm", err)
		}
	})
	e.Run()
}

func TestMemOutOfBounds(t *testing.T) {
	e, f := newFabric(t, 4)
	a := f.DTU(0)
	a.ConfigureMem(a, 5, 3, 0, 64, PermRW)
	e.Spawn("r", func(p *sim.Proc) {
		if _, err := a.ReadMem(p, 5, 60, 10); err != ErrOutOfBounds {
			t.Errorf("err = %v, want ErrOutOfBounds", err)
		}
	})
	e.Run()
}

func TestPermString(t *testing.T) {
	if s := PermRW.String(); s != "rw-" {
		t.Fatalf("PermRW = %q", s)
	}
	if s := (PermR | PermX).String(); s != "r-x" {
		t.Fatalf("R|X = %q", s)
	}
}

// Property: for any sequence of sends within credit limits, every message is
// delivered exactly once and in order per sender.
func TestNoLossWithinCredits(t *testing.T) {
	f := func(nMsgs uint8) bool {
		n := int(nMsgs%DefaultSlots) + 1
		e := sim.NewEngine()
		net := noc.New(e, noc.DefaultConfig(2))
		fab := NewFabric(e, net)
		a := fab.Add(0, 0)
		b := fab.Add(1, 0)
		b.ConfigureRecv(b, 0, DefaultSlots, nil)
		a.ConfigureSend(a, 0, 1, 0, DefaultSlots, 0)
		for i := 0; i < n; i++ {
			if err := a.Send(0, i, 8, -1, 0); err != nil {
				return false
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			m := b.Fetch(0)
			if m == nil || m.Payload.(int) != i {
				return false
			}
		}
		return b.Stats().Lost == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- coalesced (vectored) delivery ---------------------------------------

func vecOf(n int) []VecItem {
	items := make([]VecItem, n)
	for i := range items {
		items[i] = VecItem{Payload: i, Size: 16}
	}
	return items
}

// TestSendVecToOneDeliveryEvent: a coalesced vector reaches a vec-handler
// endpoint as one NoC delivery event with one handler call carrying all
// messages, and occupies a single receive slot.
func TestSendVecToOneDeliveryEvent(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	var batches int
	var got []*Message
	if err := b.ConfigureRecvVec(b, 2, 4, func(msgs []*Message) {
		batches++
		got = msgs
	}); err != nil {
		t.Fatal(err)
	}
	before := e.Executed()
	if err := a.SendVecTo(1, 2, vecOf(5)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if ran := e.Executed() - before; ran != 1 {
		t.Fatalf("vector delivery took %d events, want 1", ran)
	}
	if batches != 1 || len(got) != 5 {
		t.Fatalf("handler calls = %d with %d messages, want 1 call with 5", batches, len(got))
	}
	for i, m := range got {
		if m.Payload.(int) != i || m.SrcPE != 0 {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
	if b.Stats().VecDeliveries != 1 || b.Stats().Received != 5 {
		t.Fatalf("stats: %+v", b.Stats())
	}
	// The whole vector holds one slot; freeing all siblings releases it.
	for i, m := range got {
		if i < len(got)-1 {
			b.Free(m)
		}
	}
	if err := a.SendVecTo(1, 2, vecOf(3)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if batches != 2 {
		t.Fatal("second vector not delivered while slots were free")
	}
}

// TestSendVecSharedSlot: a 4-slot endpoint accepts 4 whole vectors (each is
// one wire message) and drops the 5th.
func TestSendVecSharedSlot(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	delivered := 0
	b.ConfigureRecvVec(b, 2, 4, func(msgs []*Message) { delivered += len(msgs) })
	for i := 0; i < 5; i++ {
		a.SendVecTo(1, 2, vecOf(8))
	}
	e.Run()
	if delivered != 4*8 {
		t.Fatalf("delivered %d messages, want %d", delivered, 4*8)
	}
	if b.Stats().Lost != 1 {
		t.Fatalf("lost = %d, want 1 (one whole vector)", b.Stats().Lost)
	}
}

// TestWaitVecSingleWake: a consumer draining with WaitVec is woken once per
// vector, not once per message — one goroutine handoff per batch.
func TestWaitVecSingleWake(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 8, nil) // queue endpoint, no handler
	wakes := 0
	var sizes []int
	e.Spawn("drain", func(p *sim.Proc) {
		msgs := b.WaitVec(p, 2)
		wakes++
		sizes = append(sizes, len(msgs))
		for _, m := range msgs {
			b.Free(m)
		}
	})
	a.SendVecTo(1, 2, vecOf(6))
	e.Run()
	if wakes != 1 || len(sizes) != 1 || sizes[0] != 6 {
		t.Fatalf("wakes=%d sizes=%v, want one wake draining 6", wakes, sizes)
	}
}

// TestSendVecToRequiresPrivilege: user DTUs cannot inject EP-less vectors.
func TestSendVecToRequiresPrivilege(t *testing.T) {
	_, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecvVec(b, 2, 4, func([]*Message) {})
	a.Downgrade()
	if err := a.SendVecTo(1, 2, vecOf(2)); err != ErrNotPrivileged {
		t.Fatalf("err = %v, want ErrNotPrivileged", err)
	}
	if err := f.DTU(2).SendVecTo(1, 2, nil); err == nil {
		t.Fatal("empty vector accepted")
	}
}

// TestVecQueueDeliveryAndSlotRelease: a vector delivered to a queue
// endpoint is fetchable message by message, but occupies its shared slot
// until the last sibling is freed.
func TestVecQueueDeliveryAndSlotRelease(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 1, nil) // a single slot
	a.SendVecTo(1, 2, vecOf(4))
	e.Run()
	var msgs []*Message
	for {
		m := b.Fetch(2)
		if m == nil {
			break
		}
		msgs = append(msgs, m)
	}
	if len(msgs) != 4 {
		t.Fatalf("fetched %d messages, want 4", len(msgs))
	}
	// The slot is still held until the last sibling is freed.
	a.SendVecTo(1, 2, vecOf(1))
	e.Run()
	if b.Stats().Lost != 1 {
		t.Fatalf("lost = %d, want 1 while the slot is shared", b.Stats().Lost)
	}
	for _, m := range msgs {
		b.Free(m)
	}
	a.SendVecTo(1, 2, vecOf(1))
	e.Run()
	if b.Stats().Lost != 1 {
		t.Fatalf("lost = %d after slot release, want still 1", b.Stats().Lost)
	}
}

// TestPerEndpointLossBreakdown: receiver-side drops are attributed to the
// endpoint whose slots ran out, the per-EP counters sum to the DTU's Lost
// total, and each drop also reaches the fabric-wide NoC counter.
func TestPerEndpointLossBreakdown(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 2, nil) // 2 slots on EP 2
	b.ConfigureRecv(b, 3, 1, nil) // 1 slot on EP 3
	a.ConfigureSend(a, 1, 1, 2, 16, 0)
	a.ConfigureSend(a, 4, 1, 3, 16, 0)
	for i := 0; i < 4; i++ {
		a.Send(1, i, 8, -1, 0) // 2 land, 2 drop on EP 2
	}
	for i := 0; i < 3; i++ {
		a.Send(4, i, 8, -1, 0) // 1 lands, 2 drop on EP 3
	}
	e.Run()
	st := b.Stats()
	if st.EPLost[2] != 2 || st.EPLost[3] != 2 {
		t.Fatalf("EPLost = [ep2:%d ep3:%d], want [2 2]", st.EPLost[2], st.EPLost[3])
	}
	var sum uint64
	for _, v := range st.EPLost {
		sum += v
	}
	if sum != st.Lost {
		t.Fatalf("sum(EPLost) = %d, Lost = %d; breakdown must account for every drop", sum, st.Lost)
	}
	if got := f.Network().Stats().Lost; got != st.Lost {
		t.Fatalf("NoC Lost = %d, want %d (receiver drops aggregate fabric-wide)", got, st.Lost)
	}
	if st.EPLost[0] != 0 || st.EPLost[1] != 0 {
		t.Fatalf("untouched endpoints accumulated losses: %v", st.EPLost[:4])
	}
}

// roundTrip wires a request/reply channel from a to b: a server proc on b
// answers every request with Reply, and a client proc on a acks every
// reply. One call of the returned function sends one request and runs the
// whole Send → Wait → Reply → Wait → Ack exchange to completion.
func roundTrip(e *sim.Engine, a, b *DTU) func() {
	const sendEP, recvEP, replyEP = 1, 2, 3
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(b.ConfigureRecv(b, recvEP, 4, nil))
	must(a.ConfigureRecv(a, replyEP, 4, nil))
	must(a.ConfigureSend(a, sendEP, b.PE(), recvEP, 1, 0))
	e.Spawn("server", func(p *sim.Proc) {
		for {
			b.Reply(b.Wait(p, recvEP), nil, 8)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		for {
			a.Ack(a.Wait(p, replyEP))
		}
	})
	return func() {
		must(a.Send(sendEP, nil, 16, replyEP, 0))
		e.Run()
	}
}

// TestRoundTripAllocs gates the allocation-lean message path: a warmed
// request/reply round trip allocates the two Messages and nothing else —
// no delivery closures, no credit-return closures and no wait-queue growth.
func TestRoundTripAllocs(t *testing.T) {
	e, f := newFabric(t, 4)
	defer e.Kill()
	a, b := f.DTU(0), f.DTU(3)
	trip := roundTrip(e, a, b)
	trip() // warm: grow the event lanes and the endpoint queues
	if got := testing.AllocsPerRun(50, trip); got > 2 {
		t.Errorf("round trip allocates %.1f objects, want at most 2 (the two Messages)", got)
	}
	if a.Credits(1) != 1 {
		t.Fatalf("credits after round trips = %d, want 1", a.Credits(1))
	}
}

// dupInjector duplicates the messages whose 0-based Send index is in dup.
type dupInjector struct {
	dup   map[int]bool
	calls int
}

func (d *dupInjector) Inspect(now sim.Time, src, dst, size int) noc.Verdict {
	v := noc.Verdict{Dup: d.dup[d.calls]}
	d.calls++
	return v
}

// TestDuplicateDelivery: an injected duplicate of a Send arrives as a second,
// distinct Message that is acked on its own, and duplicated replies and
// credit returns never raise credits above the endpoint's maximum.
func TestDuplicateDelivery(t *testing.T) {
	e, f := newFabric(t, 4)
	a, b := f.DTU(0), f.DTU(1)
	b.ConfigureRecv(b, 2, 4, nil)
	a.ConfigureRecv(a, 3, 4, nil)
	a.ConfigureSend(a, 1, 1, 2, 2, 0)

	// Wire messages in order: 0 request (dup), 1 and 2 the acks of both
	// copies (the second dup).
	f.Network().SetInjector(&dupInjector{dup: map[int]bool{0: true, 2: true}})
	if err := a.Send(1, "req", 16, -1, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	m1, m2 := b.Fetch(2), b.Fetch(2)
	if m1 == nil || m2 == nil || b.Fetch(2) != nil {
		t.Fatalf("receiver got %v, %v; want exactly two copies", m1, m2)
	}
	if m1 == m2 {
		t.Fatal("duplicate delivered the same *Message twice")
	}
	if m2.Payload.(string) != "req" || m2.SrcPE != 0 || m2.SrcEP != 1 {
		t.Fatalf("bad duplicate: %+v", m2)
	}
	b.Ack(m1)
	b.Ack(m2) // a distinct message: no "freed twice" panic
	e.Run()
	if got := a.Credits(1); got != 2 {
		t.Fatalf("credits after acking both copies = %d, want 2 (the maximum)", got)
	}

	// Wire messages: 3 request, 4 its reply (dup).
	f.Network().SetInjector(&dupInjector{dup: map[int]bool{1: true}})
	a.Send(1, "req2", 16, 3, 0)
	e.Run()
	b.Reply(b.Fetch(2), "resp", 16)
	e.Run()
	r1, r2 := a.Fetch(3), a.Fetch(3)
	if r1 == nil || r2 == nil || r1 == r2 {
		t.Fatalf("reply copies %p, %p; want two distinct messages", r1, r2)
	}
	if r1.Payload.(string) != "resp" || r2.Payload.(string) != "resp" {
		t.Fatalf("bad reply copies: %+v, %+v", r1, r2)
	}
	if got := a.Credits(1); got != 2 {
		t.Fatalf("credits after a duplicated reply = %d, want 2 (the maximum)", got)
	}
	a.Free(r1)
	a.Free(r2)
}
