package core

import (
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Inter-kernel calls (paper §4.1): kernels communicate via messages over
// the NoC, adhering to a messaging protocol with per-pair FIFO ordering
// (guaranteed by internal/noc) and a bounded number of in-flight messages
// per kernel pair, so that the receiver's DTU message slots can never
// overflow. Replies travel in slots reserved by the request (as in the M3
// DTU design), so only requests count against the in-flight limit.

// inflightTo returns the in-flight semaphore for requests to kernel dst,
// created lazily in its dense per-kernel slot.
func (k *Kernel) inflightTo(dst int) *sim.Semaphore {
	s := k.inflight[dst]
	if s == nil {
		s = sim.NewSemaphore(k.sys.Eng, MaxInflight)
		k.inflight[dst] = s
	}
	return s
}

// nextSeq mints a request sequence number.
func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

// ikSend transmits a request to kernel dst. The caller must hold the CPU
// token; the in-flight slot is acquired at a preemption point (the CPU is
// released while waiting for one). The request is matched with a reply via
// its sequence number; the returned future completes when the reply
// arrives.
func (k *Kernel) ikSend(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
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
		// Degraded mode: dst exhausted its retry budget earlier. Fail the
		// call immediately instead of queueing work for a dead kernel.
		k.rt.failFast(req.Seq, dst)
		return fut
	}
	k.stats.IKCSent++

	sem := k.inflightTo(dst)
	if !sem.TryAcquire() {
		k.releaseCPU()
		sem.Acquire(p)
		k.acquireCPU(p)
	}
	dk := k.sys.kernels[dst]
	k.sys.Net.Send(k.pe, dk.pe, ikcMsgBytes, func() { dk.recvRequest(req) })
	if k.rt != nil {
		k.rt.track(dst, []*ikcRequest{req}, false, req.Kind)
	}
	return fut
}

// ikSubmit hands a request to the unified transport: kinds the batching
// policy covers join a per-destination aggregation queue (transport.go) and
// travel in a coalesced envelope; everything else is a direct ikSend. With
// batching disabled this is exactly ikSend.
func (k *Kernel) ikSubmit(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
	if k.xport.batches(req.Kind) {
		return k.xport.enqueue(p, dst, req)
	}
	return k.ikSend(p, dst, req)
}

// ikCall performs a blocking inter-kernel call: submit the request to the
// transport, release the CPU (preemption point), wait for the reply.
func (k *Kernel) ikCall(p *sim.Proc, dst int, req *ikcRequest) *ikcReply {
	fut := k.ikSubmit(p, dst, req)
	rep := blockOn(k, p, fut)
	delete(k.pending, req.Seq)
	return rep
}

// ikNotify sends a one-way notification (e.g. orphan unlink). It consumes
// an in-flight slot like any request but nobody waits for a reply; the
// receiver must not send one. In reliable mode the receiver *does* answer
// with an empty ack (see dispatchRequest): loss of a notification must be
// observable so it can be retransmitted and its credit returned, and the
// ack — completing a future nobody waits on — is what resolves the
// transmission. The ack's future is returned so callers can observe a
// degraded outcome (ErrPeerDead) without blocking on it; in baseline
// lossless mode there is no ack and the result is nil.
func (k *Kernel) ikNotify(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
	k.exec(p, k.sys.Cost.IKCCompose)
	req.Seq = k.nextSeq()
	req.From = k.id
	req.Inc = k.incarnation
	var fut *sim.Future[*ikcReply]
	if k.reliable() {
		fut = sim.NewFuture[*ikcReply](k.sys.Eng)
		k.pending[req.Seq] = fut
		if k.peerDead(dst) {
			k.rt.failFast(req.Seq, dst)
			return fut
		}
	}
	k.stats.IKCSent++
	sem := k.inflightTo(dst)
	if !sem.TryAcquire() {
		k.releaseCPU()
		sem.Acquire(p)
		k.acquireCPU(p)
	}
	dk := k.sys.kernels[dst]
	k.sys.Net.Send(k.pe, dk.pe, ikcMsgBytes, func() { dk.recvRequest(req) })
	if k.rt != nil {
		k.rt.track(dst, []*ikcRequest{req}, false, req.Kind)
	}
	return fut
}

// recvRequest runs at the receiving kernel when a request message arrives
// (event context). Revoke requests go to the bounded revoke pool (at most
// two threads, the paper's DoS defense); everything else to the general
// inter-kernel pool.
func (k *Kernel) recvRequest(req *ikcRequest) {
	k.stats.IKCReceived++
	job := func(p *sim.Proc) {
		k.acquireCPU(p)
		if !k.reliable() {
			// Picking the message up frees its slot: return the in-flight
			// credit to the sender. In reliable mode the credit instead
			// returns when the sender's transmission resolves (onReply /
			// abort in reliability.go) — a lost request must not leak it.
			src := k.sys.kernels[req.From]
			k.sys.Eng.Schedule(0, func() { src.inflightTo(k.id).Release() })
		}
		k.exec(p, k.sys.Cost.IKCDispatch)
		if k.admitRequest(req) && k.dedupCheck(req) {
			k.dispatchRequest(p, req)
		}
		// Dispatch barrier of the reply sink (see flushBatchReplies): a
		// reply produced by this dispatch leaves now instead of waiting on
		// an idle window timer. No-op for unbatched families.
		k.xport.flushBatchReplies(req.From, req.Kind)
		k.releaseCPU()
	}
	if req.Kind == ikcRevoke || req.Kind == ikcRevokeBatch {
		k.revokePool.submit(job)
	} else {
		k.ikcPool.submit(job)
	}
}

// recvBatch runs at the receiving kernel when a coalesced envelope arrives
// at its batch endpoint (event context, one delivery event for the whole
// vector). The envelope counts as one received wire message, occupies one
// in-flight slot of its sender and is picked up by a single kernel thread,
// which frees the shared receive slot, returns the in-flight credit and
// dispatches the carried requests in order. Handlers return their replies
// to the transport's reply sink, and they may block at their usual
// preemption points — the batch thread simply resumes with the next
// request afterwards, serializing the batch the way the receiving kernel's
// single CPU would anyway. When the last request has been dispatched the
// thread flushes the reply queue feeding the envelope's sender (the
// sink's dispatch barrier), so the batch is normally answered by a single
// reply envelope and no reply waits on an idle timer.
func (k *Kernel) recvBatch(msgs []*dtu.Message) {
	k.stats.IKCReceived++
	reqs := make([]*ikcRequest, len(msgs))
	for i, m := range msgs {
		reqs[i] = m.Payload.(*ikcRequest)
	}
	batch := &ikcBatch{From: reqs[0].From, Kind: reqs[0].Kind, Reqs: reqs}
	for _, req := range reqs {
		if req.From != batch.From || req.Kind != batch.Kind {
			panic("core: mixed envelope — batches must carry one kind from one kernel")
		}
	}
	k.ikcPool.submit(func(p *sim.Proc) {
		k.acquireCPU(p)
		for _, m := range msgs {
			k.dtu.Free(m)
		}
		if !k.reliable() {
			src := k.sys.kernels[batch.From]
			k.sys.Eng.Schedule(0, func() { src.inflightTo(k.id).Release() })
		}
		for _, req := range batch.Reqs {
			k.exec(p, k.sys.Cost.IKCDispatch)
			if k.admitRequest(req) && k.dedupCheck(req) {
				k.dispatchRequest(p, req)
			}
		}
		k.xport.flushBatchReplies(batch.From, batch.Kind)
		k.releaseCPU()
	})
}

// dispatchRequest routes a request to its handler and hands the returned
// result to the reply path. Handlers run on a kernel thread with the CPU
// held and *return* their reply instead of composing wire messages
// themselves — the transport decides whether it leaves as a direct message
// or joins a reply envelope. A nil result means no reply now: notifications
// are never answered, and the continuation-based revocation paths answer
// later via ikReplyAsync.
func (k *Kernel) dispatchRequest(p *sim.Proc, req *ikcRequest) {
	var rep *ikcReply
	switch req.Kind {
	case ikcObtain:
		rep = k.handleObtainReq(p, req)
	case ikcDelegate:
		rep = k.handleDelegateReq(p, req)
	case ikcDelegateAck:
		rep = k.handleDelegateAck(p, req)
	case ikcRevoke:
		rep = k.handleRevokeReq(p, req)
	case ikcRevokeBatch:
		rep = k.handleRevokeBatchReq(p, req)
	case ikcUnlinkChild:
		k.handleUnlinkChild(p, req) // notification: nobody to answer
		if k.reliable() {
			// ...except in reliable mode, where an empty ack makes the
			// notification's loss observable (see ikNotify).
			rep = &ikcReply{}
		}
	case ikcSession:
		rep = k.handleSessionReq(p, req)
	case ikcObtainSess:
		rep = k.handleObtainSessReq(p, req)
	case ikcDelegateSess:
		rep = k.handleDelegateSessReq(p, req)
	case ikcRejoin:
		rep = k.handleRejoin(p, req)
	default:
		panic("core: unknown inter-kernel request kind")
	}
	if rep != nil {
		k.ikReply(p, req, rep)
	}
}

// ikReply sends the reply for req back to its sender, routing it through
// the reply sink when the policy batches this operation family (it then
// rides a coalesced envelope instead of its own wire message). The caller
// must hold the CPU token; the compose cost models marshalling the reply —
// into a message or into the envelope buffer. Direct replies travel in
// slots reserved by the request and bypass the in-flight limit.
func (k *Kernel) ikReply(p *sim.Proc, req *ikcRequest, rep *ikcReply) {
	k.exec(p, k.sys.Cost.IKCCompose)
	rep.Seq = req.Seq
	rep.From = k.id
	rep.Inc = req.Inc
	k.cacheReply(req.From, req.Seq, rep)
	if k.xport.batchesReply(req.Kind) {
		k.xport.enqueueReply(req.From, replyClassOf(req.Kind), rep)
		return
	}
	k.stats.IKCRepSent++
	src := k.sys.kernels[req.From]
	k.sys.Net.Send(k.pe, src.pe, ikcRepBytes, func() { src.recvReply(rep) })
}

// ikReplyAsync sends a reply from event context (used by the
// continuation-based revocation, which completes on message arrival rather
// than on a thread). The compose cost is modeled as a delay before the
// message leaves. These replies never join reply envelopes, regardless of
// policy: a continuation fires long after any dispatch barrier has passed,
// so batching it could only park a revocation's completion — the event the
// initiator's syscall blocks on — on an idle window timer, trading
// latency-critical progress for a coalescing opportunity that barely
// exists (revocation already answers one reply per batched request).
// Keeping them direct also pins batched revocation of arbitrarily deep
// trees to its pre-sink event trace.
func (k *Kernel) ikReplyAsync(req *ikcRequest, rep *ikcReply) {
	rep.Seq = req.Seq
	rep.From = k.id
	rep.Inc = req.Inc
	k.cacheReply(req.From, req.Seq, rep)
	k.stats.Busy += k.sys.Cost.IKCCompose
	k.stats.IKCRepSent++
	src := k.sys.kernels[req.From]
	k.sys.Eng.Schedule(k.sys.Cost.IKCCompose, func() {
		k.sys.Net.Send(k.pe, src.pe, ikcRepBytes, func() { src.recvReply(rep) })
	})
}

// recvReplyVec runs at the requesting kernel when a reply envelope arrives
// at its reply endpoint (event context, one delivery event for the whole
// vector). Like direct replies, the demux costs no kernel thread: each
// carried reply frees its share of the slot and completes its pending
// future, in envelope (= enqueue) order, so requesters observe the same
// reply order the answering kernel produced.
func (k *Kernel) recvReplyVec(msgs []*dtu.Message) {
	for _, m := range msgs {
		k.dtu.Free(m)
		k.recvReply(m.Payload.(*ikcReply))
	}
}

// recvReply completes the pending future for a reply (event context). A
// reply for an unknown sequence number is late or duplicated: its request
// was retransmitted and already answered, or the peer was declared dead
// and the future completed with an error reply. It is counted, not fatal
// — on the lossless baseline the counter provably stays zero (every
// reply matches a pending future), so flags-off traces are unchanged.
func (k *Kernel) recvReply(rep *ikcReply) {
	if k.rt != nil && rep.Inc != 0 && rep.Inc != k.incarnation {
		// The reply echoes the incarnation that asked the question; this
		// kernel has since crashed and recovered, so the answer belongs to
		// the dead incarnation (its futures were already aborted at rejoin).
		k.stats.StaleIncarnation++
		return
	}
	fut := k.pending[rep.Seq]
	if fut == nil {
		k.stats.LateReplies++
		return
	}
	delete(k.pending, rep.Seq)
	if k.rt != nil {
		k.rt.onReply(rep.Seq)
	}
	fut.Complete(rep)
}
