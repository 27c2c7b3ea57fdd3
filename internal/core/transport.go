package core

import (
	"fmt"

	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// The unified IKC transport (paper §4.3 + the §5.2 message-batching
// proposal, generalized). The paper implements batching only for tree
// revocation; related capability systems make aggregation a property of the
// transport instead, so every inter-kernel operation can ride it. This file
// hoists that idea out of revoke.go and makes the transport symmetric: each
// kernel owns per-(destination, request-kind) aggregation queues for the
// request direction AND per-(destination, class) reply queues for the reply
// direction, under one configurable policy that decides which operation
// families are batched and when queues flush:
//
//   - inline, when a queue reaches MaxBatch (the enqueuing thread holds the
//     CPU and composes the envelope itself);
//   - for request queues, after the adaptive flush window closes: a timer
//     armed when a queue goes non-empty hands the flush to the kernel's
//     "xmit" proc, since every enqueuer is parked on its reply by then;
//   - at protocol barriers: the revocation mark phase flushes its request
//     queues before the walk ends, preserving Algorithm 1's accounting, and
//     every request dispatch ends by flushing the reply queue feeding that
//     request's sender (flushBatchReplies) — the reply direction needs no
//     timer at all, because a reply cannot outlive the dispatch that
//     produced it.
//
// A flushed batch travels as one DTU message — dtu.SendVecTo coalesces the
// requests (or replies) into a single NoC transfer occupying a single
// receive slot and raising a single delivery event. Request envelopes are
// picked up by one kernel thread (recvBatch); reply envelopes are demuxed
// in event context (recvReplyVec) into the per-request futures, exactly
// like direct replies. So where PR 3 still answered an envelope of N
// requests with N wire messages, the sink now answers it with one.
//
// Correctness of the flush points: delaying a request or reply by at most
// the flush window is equivalent to a slower NoC — every protocol in
// exchange.go/service.go validates state at the receiver when the request
// is dispatched and re-validates at the sender when the reply arrives, so
// no handler depends on a bound for message latency. Ordering between
// dependent messages is preserved *explicitly* by the sink rather than
// implicitly by send order: replies flush in enqueue order within an
// envelope and are demuxed in that order, and a reply to a request that
// arrived in an envelope leaves no later than the envelope's dispatch
// barrier. Dependent sends (the delegate ack, the orphan unlink) are only
// issued by the requester after the reply they depend on has been demuxed,
// and the NoC delivers per-(src,dst) FIFO for direct and coalesced
// transfers alike — so the delegate two-phase handshake observes the same
// order it did with per-request replies.

// IKCBatching configures the unified transport. The zero value disables
// all batching (every request is a direct send, bit-identical to the
// pre-transport behavior). An enabled family batches both directions:
// requests into per-(destination, kind) envelopes and their replies into
// per-(destination, class) envelopes.
type IKCBatching struct {
	// Exchange batches group-spanning capability exchange requests
	// (obtain, delegate) per destination kernel (§4.3.2).
	Exchange bool
	// ServiceQuery batches service-connection requests (session create,
	// session-scoped obtain/delegate) per destination kernel (§4.3.3).
	ServiceQuery bool
	// Revoke batches tree-revocation requests for remote children, one
	// envelope per owning kernel, collected during the mark phase and
	// flushed at its end (the paper's §5.2 proposal). In the reply
	// direction it routes thread-context revoke replies through the sink
	// (they leave at the dispatch barrier); continuation-completed replies
	// stay direct — see ikReplyAsync — so revocation completion never waits
	// on a window.
	Revoke bool
	// MaxBatch flushes an exchange/service-query queue inline when it
	// reaches this many requests (default DefaultMaxBatch). Revoke batches
	// are bounded by the mark phase instead. Reply queues use the same
	// bound.
	MaxBatch int
	// FlushWindow is the *ceiling* of the adaptive aggregation window: the
	// longest a non-empty request queue may wait for more traffic before
	// it is flushed (default DefaultFlushWindow cycles). Each request
	// queue adapts its own window between FlushWindowMin and FlushWindow
	// by drain feedback at every flush: draining a full MaxBatch envelope
	// (sustained load) doubles the window, draining a lone message (the
	// wait bought nothing: the link is quiet) halves it, anything between
	// leaves it — so batching stops costing latency on idle links and
	// still aggregates aggressively on busy ones. Reply queues have no
	// window: they drain at the dispatch barrier (see transport.repq).
	FlushWindow sim.Duration
	// FlushWindowMin is the floor of the adaptive window (default
	// DefaultFlushWindowMin). Setting FlushWindowMin = FlushWindow pins
	// the window fixed, disabling adaptation.
	FlushWindowMin sim.Duration
}

// Transport defaults.
const (
	// DefaultMaxBatch is the inline-flush threshold per destination queue.
	DefaultMaxBatch = 16
	// DefaultFlushWindow is the aggregation-window ceiling in cycles
	// (0.5 µs at 2 GHz): long enough to capture concurrent spanning
	// operations, short against the multi-thousand-cycle cost of the
	// operations themselves.
	DefaultFlushWindow sim.Duration = 1000
	// DefaultFlushWindowMin is the adaptive window's floor (32 ns at
	// 2 GHz): close enough to an inline flush that a lone request on a
	// quiet link pays almost nothing for riding the transport.
	DefaultFlushWindowMin sim.Duration = 64
)

// Enabled reports whether any operation family is batched.
func (b IKCBatching) Enabled() bool {
	return b.Exchange || b.ServiceQuery || b.Revoke
}

// withDefaults fills MaxBatch and the flush-window bounds.
func (b IKCBatching) withDefaults() IKCBatching {
	if b.MaxBatch <= 0 {
		b.MaxBatch = DefaultMaxBatch
	}
	if b.FlushWindow == 0 {
		b.FlushWindow = DefaultFlushWindow
	}
	if b.FlushWindowMin == 0 {
		b.FlushWindowMin = DefaultFlushWindowMin
	}
	if b.FlushWindowMin > b.FlushWindow {
		b.FlushWindowMin = b.FlushWindow
	}
	return b
}

// batchClass groups request kinds into the policy's operation families.
type batchClass uint8

const (
	classNone batchClass = iota
	classExchange
	classSvcQuery
	classRevoke
)

// classOf maps a request kind to its batching family. Handshake
// completions (delegate-ack) and notifications (unlink-child) are never
// batched: they are latency-critical tails of an operation that already
// paid its round trips.
func classOf(kind ikcKind) batchClass {
	switch kind {
	case ikcObtain, ikcDelegate:
		return classExchange
	case ikcSession, ikcObtainSess, ikcDelegateSess:
		return classSvcQuery
	case ikcRevoke:
		return classRevoke
	default:
		return classNone
	}
}

// replyClassOf maps a request kind to the family its *reply* batches
// under. It differs from classOf in the revocation family: revocation
// requests ride their own dedicated envelope (ikcRevokeBatch, classNone in
// the request direction because the mark walk queues them explicitly), but
// their thread-context replies are ordinary ikcReply messages and flow
// through the generic sink like everything else (continuation completions
// bypass it — see ikReplyAsync).
func replyClassOf(kind ikcKind) batchClass {
	switch kind {
	case ikcRevoke, ikcRevokeBatch:
		return classRevoke
	default:
		return classOf(kind)
	}
}

// qkey identifies one request aggregation queue: requests of one kind
// bound for one kernel (so every envelope carries N requests of a single
// kind).
type qkey struct {
	dst  int
	kind ikcKind
}

// rkey identifies one reply aggregation queue: replies of one operation
// family bound for one kernel. Replies are matched to their request by
// sequence number, not by kind, so the reply direction can coalesce at the
// coarser class granularity.
type rkey struct {
	dst   int
	class batchClass
}

// sendQueue is one request aggregation queue. epoch distinguishes queue
// generations so a flush (timer or transmit-proc entry) aimed at an
// already-flushed generation is a no-op; window is the queue's adaptive
// flush window.
type sendQueue struct {
	reqs   []*ikcRequest
	epoch  uint64
	window sim.Duration
}

// flushRef names one generation of one request queue on the transmit
// proc's work queue. Carrying the epoch keeps a stale entry — its
// generation already flushed inline while the proc waited for the CPU —
// from draining the *next* generation early, which would both cut that
// envelope short and feed adaptWindow a false idle signal.
type flushRef struct {
	key   qkey
	epoch uint64
}

// replyQueue is one reply aggregation queue. It needs no generation or
// window bookkeeping: replies are only produced inside a request
// dispatch, and every dispatch ends with a barrier flush of this queue
// (flushBatchReplies), so the queue can never outlive the event instant
// that filled it — MaxBatch and the barrier are the only flush triggers.
type replyQueue struct {
	reps []*ikcReply
}

// revokeEntry is one remote child queued during a revocation mark phase.
type revokeEntry struct {
	dst int
	key ddl.Key
	rs  *revState
}

// transport is a kernel's half of the unified IKC layer: the request
// aggregation queues (sending side) and the reply sink (answering side).
type transport struct {
	k   *Kernel
	pol IKCBatching

	queues map[qkey]*sendQueue
	// repq is the reply sink: handlers return their results to it (via
	// ikReply; continuation completions bypass it, see ikReplyAsync) and
	// it aggregates them into per-(destination, class) envelopes drained
	// by the dispatch barrier.
	repq map[rkey]*replyQueue
	// revQ holds remote revocation targets between a mark walk and its
	// barrier flush. The kernel CPU is held for the whole walk, so the
	// queue only ever contains entries of the revocation being walked.
	revQ []revokeEntry

	// flushQ feeds the transmit proc; spawned lazily on the first
	// timer-driven request flush so unbatched configurations create no
	// procs. Reply flushes never need it: nobody blocks on sending a
	// reply, so they run from event context under the ikReplyAsync cost
	// convention.
	flushQ  *sim.Queue[flushRef]
	spawned bool
}

func newTransport(k *Kernel, pol IKCBatching) *transport {
	return &transport{
		k:      k,
		pol:    pol.withDefaults(),
		queues: make(map[qkey]*sendQueue),
		repq:   make(map[rkey]*replyQueue),
		flushQ: sim.NewQueue[flushRef](k.sys.Eng),
	}
}

// batches reports whether requests of this kind ride aggregation queues.
// Revocation is excluded here: the mark walk queues its remote children
// explicitly (queueRevoke) so the barrier flush can keep Algorithm 1's
// outstanding-reply accounting.
func (t *transport) batches(kind ikcKind) bool {
	switch classOf(kind) {
	case classExchange:
		return t.pol.Exchange
	case classSvcQuery:
		return t.pol.ServiceQuery
	default:
		return false
	}
}

// batchesReply reports whether the reply to a request of this kind rides
// the reply sink. Symmetric with the request policy, except that the
// revocation family covers the reply direction too (see replyClassOf).
func (t *transport) batchesReply(kind ikcKind) bool {
	switch replyClassOf(kind) {
	case classExchange:
		return t.pol.Exchange
	case classSvcQuery:
		return t.pol.ServiceQuery
	case classRevoke:
		return t.pol.Revoke
	default:
		return false
	}
}

func (t *transport) queue(key qkey) *sendQueue {
	q := t.queues[key]
	if q == nil {
		q = &sendQueue{window: t.pol.FlushWindow}
		t.queues[key] = q
	}
	return q
}

func (t *transport) replyQueue(key rkey) *replyQueue {
	q := t.repq[key]
	if q == nil {
		q = &replyQueue{}
		t.repq[key] = q
	}
	return q
}

// --- request direction ---------------------------------------------------

// enqueue appends req to its aggregation queue and returns the future its
// reply will complete. The caller holds the CPU; the compose cost models
// marshalling the request into the batch buffer. The queue flushes inline
// at MaxBatch (growing the adaptive window: load sustains batching);
// otherwise the first request of a generation arms the window timer.
func (t *transport) enqueue(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
	k := t.k
	if dst == k.id {
		panic("core: inter-kernel call to self")
	}
	k.exec(p, k.sys.Cost.IKCCompose)
	req.Seq = k.nextSeq()
	req.From = k.id
	req.Inc = k.incarnation
	fut := sim.NewFuture[*ikcReply](k.sys.Eng)
	k.pending[req.Seq] = fut
	if k.peerDead(dst) {
		// Degraded mode: don't queue requests for a dead kernel — answer
		// them with an error reply right away (see reliability.go).
		k.rt.failFast(req.Seq, dst)
		return fut
	}
	k.stats.IKCBatched++

	key := qkey{dst: dst, kind: req.Kind}
	q := t.queue(key)
	q.reqs = append(q.reqs, req)
	if len(q.reqs) >= t.pol.MaxBatch {
		t.flushLocked(p, key)
	} else if len(q.reqs) == 1 {
		epoch := q.epoch
		k.sys.Eng.Schedule(q.window, func() { t.timerFire(key, epoch) })
	}
	return fut
}

// adaptWindow is the drain feedback of the adaptive flush window: a flush
// that drained a full MaxBatch envelope means
// sustained load — double the window (up to the FlushWindow ceiling) so
// the queue aggregates even more next time; a flush that drained a single
// message means the wait bought nothing — halve it (down to the
// FlushWindowMin floor) so a quiet link converges toward inline sends.
// In-between yields leave the window alone. The trigger (timer, MaxBatch,
// dispatch barrier) is deliberately ignored: under CPU contention a
// timer-armed flush routinely drains a full queue, which is load, not
// idleness.
func (t *transport) adaptWindow(window *sim.Duration, drained int) {
	switch {
	case drained >= t.pol.MaxBatch:
		*window = min(t.pol.FlushWindow, *window*2)
	case drained == 1:
		*window = max(t.pol.FlushWindowMin, *window/2)
	}
}

// timerFire runs in event context when a queue's aggregation window
// closes. If the generation is still pending, the flush is handed to the
// transmit proc (the enqueuers are parked on their replies and cannot
// flush themselves).
func (t *transport) timerFire(key qkey, epoch uint64) {
	q := t.queues[key]
	if q == nil || q.epoch != epoch || len(q.reqs) == 0 {
		return // already flushed inline
	}
	if !t.spawned {
		t.spawned = true
		t.k.sys.Eng.Spawn(fmt.Sprintf("k%d/xmit", t.k.id), func(p *sim.Proc) {
			for {
				ref := t.flushQ.Pop(p)
				t.flushFrom(p, ref)
			}
		})
	}
	t.flushQ.Push(flushRef{key: key, epoch: epoch})
}

// flushFrom is the transmit proc's entry: acquire the CPU like any kernel
// thread, then flush. The generation may have been flushed inline while
// this entry waited behind the CPU; the epoch check makes that a no-op —
// draining the *successor* generation here would cut its envelope short
// and misreport idleness to adaptWindow.
func (t *transport) flushFrom(p *sim.Proc, ref flushRef) {
	q := t.queues[ref.key]
	if q == nil || q.epoch != ref.epoch || len(q.reqs) == 0 {
		return
	}
	t.k.acquireCPU(p)
	if q.epoch == ref.epoch { // may have flushed inline while we waited for the CPU
		t.flushLocked(p, ref.key)
	}
	t.k.releaseCPU()
}

// flushLocked drains one queue and transmits its requests as a single
// coalesced envelope. The caller holds the CPU. The queue is detached
// before any preemption point, so requests enqueued while this envelope
// waits for an in-flight slot start a fresh generation.
func (t *transport) flushLocked(p *sim.Proc, key qkey) {
	q := t.queues[key]
	if q == nil || len(q.reqs) == 0 {
		return
	}
	reqs := q.reqs
	q.reqs = nil
	q.epoch++
	t.adaptWindow(&q.window, len(reqs))

	k := t.k
	if k.peerDead(key.dst) {
		// The destination died while these requests were queued: complete
		// them with error replies instead of transmitting into a black
		// hole (and tying up an in-flight credit).
		for _, req := range reqs {
			k.rt.failFast(req.Seq, key.dst)
		}
		return
	}
	k.exec(p, k.sys.Cost.IKCCompose) // envelope header compose
	k.stats.IKCSent++
	k.stats.IKCBatches++
	sem := k.inflightTo(key.dst)
	if !sem.TryAcquire() {
		k.releaseCPU()
		sem.Acquire(p)
		k.acquireCPU(p)
	}
	env := &ikcBatch{From: k.id, Kind: key.kind, Reqs: reqs}
	dk := k.sys.kernels[key.dst]
	must(k.dtu.SendVecTo(dk.pe, ikcBatchEP, env.items()))
	if k.rt != nil {
		k.rt.track(key.dst, reqs, true, key.kind)
	}
}

// --- reply direction (the sink) ------------------------------------------

// enqueueReply appends rep to its (destination, class) reply queue. The
// per-reply marshal cost has already been charged by ikReply. It may only
// be called from request-dispatch context: the dispatch barrier that ends
// every dispatch (flushBatchReplies, in recvRequest and recvBatch) is what
// guarantees the queue drains — there is no timer fallback, and none is
// needed, because a reply cannot outlive the dispatch that produced it.
// The only other flush trigger is MaxBatch, when a wide envelope's replies
// overflow mid-dispatch.
func (t *transport) enqueueReply(dst int, class batchClass, rep *ikcReply) {
	key := rkey{dst: dst, class: class}
	q := t.replyQueue(key)
	q.reps = append(q.reps, rep)
	if len(q.reps) >= t.pol.MaxBatch {
		t.flushReplies(key)
	}
}

// flushBatchReplies is the dispatch barrier of the reply sink: called when
// a kernel finishes dispatching an incoming request (envelope or direct),
// it flushes the reply queue feeding that request's sender. Every handler
// of an envelope has returned its reply to the sink by now (handlers that
// defer to continuations — revocation — answer later via ikReplyAsync,
// which bypasses the sink), so the common case answers an envelope of N
// requests with exactly one reply envelope, and no reply waits on an idle
// timer. Handlers may block mid-dispatch for consent and service round
// trips far longer than any flush window — the barrier, unlike a timer,
// holds the envelope open across them.
func (t *transport) flushBatchReplies(src int, kind ikcKind) {
	t.flushReplies(rkey{dst: src, class: replyClassOf(kind)})
}

// flushReplies drains one reply queue and transmits it as a single
// coalesced envelope over the vectored DTU path, preserving enqueue order.
// The envelope-header compose cost is charged as busy time before the send
// (the ikReplyAsync convention); replies bypass the in-flight limit — they
// answer slots the requests reserved — so there is nothing to block on. A
// queue holding a single reply degenerates to a direct reply message:
// there is nothing to share an envelope header with, so wrapping it would
// only add compose time and wire bytes.
func (t *transport) flushReplies(key rkey) {
	q := t.repq[key]
	if q == nil || len(q.reps) == 0 {
		return
	}
	reps := q.reps
	q.reps = nil

	k := t.k
	k.stats.IKCRepSent++
	dk := k.sys.kernels[key.dst]
	if len(reps) == 1 {
		k.sendReply(dk, reps[0])
		return
	}
	k.stats.IKCRepBatches++
	k.stats.IKCRepBatched += uint64(len(reps))
	k.stats.Busy += k.sys.Cost.IKCCompose // envelope header compose
	items := make([]dtu.VecItem, len(reps))
	for i, r := range reps {
		items[i] = dtu.VecItem{Payload: r, Size: ikcBatchedRepBytes}
	}
	k.sys.Eng.Schedule(k.sys.Cost.IKCCompose, func() {
		must(k.dtu.SendVecTo(dk.pe, ikcReplyEP, items))
	})
}

// --- revocation barrier --------------------------------------------------

// queueRevoke records a remote child of a running revocation mark phase.
// The barrier flush (flushRevokes) groups the children by owning kernel.
func (t *transport) queueRevoke(dst int, key ddl.Key, rs *revState) {
	t.revQ = append(t.revQ, revokeEntry{dst: dst, key: key, rs: rs})
}

// flushRevokes is the revocation barrier flush: group rs's remote children
// by owning kernel (in first-seen order) and send one batched revoke
// request per kernel, counting one outstanding reply each — exactly the
// grouping the pre-transport flushRevokeBatches performed, so batched
// revocation keeps its original event sequence. The envelope stays the
// dedicated ikcRevokeBatch request (one reply for the whole batch,
// completed by the receiver's continuation machinery) rather than the
// generic per-request envelope of the other classes; the *reply* to it
// does ride the sink (replyClassOf maps it to classRevoke).
func (t *transport) flushRevokes(p *sim.Proc, rs *revState) {
	if len(t.revQ) == 0 {
		return
	}
	batches := make(map[int][]ddl.Key)
	var order []int
	var rest []revokeEntry
	for _, e := range t.revQ {
		if e.rs != rs {
			rest = append(rest, e) // defensive; the CPU discipline makes this unreachable
			continue
		}
		if _, seen := batches[e.dst]; !seen {
			order = append(order, e.dst)
		}
		batches[e.dst] = append(batches[e.dst], e.key)
	}
	t.revQ = rest
	k := t.k
	for _, dst := range order {
		rs.outstanding++
		keys := batches[dst]
		fut := k.ikSend(p, dst, &ikcRequest{Kind: ikcRevokeBatch, Keys: keys})
		fut.OnComplete(func(rep *ikcReply) {
			// An unreachable owner leaves every key of the batch unrevoked
			// remotely; record each for replay at the owner's rejoin.
			for _, key := range keys {
				k.recordOrphanFix(orphanFix{dst: dst, kind: ikcRevoke, key: key}, rep)
			}
			k.compSubmit(rs)
		})
	}
}
