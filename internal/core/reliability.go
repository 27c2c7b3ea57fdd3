package core

import "repro/internal/sim"

// Reliable IKC mode. The baseline inter-kernel protocol assumes the
// lossless fabric the paper assumes: a dropped message hangs its future
// and a stray reply panics. When a fault plan is attached
// (Config.Faults) — or Config.Reliability is set explicitly — every
// kernel runs this layer on top of the unchanged request/reply protocol:
//
//   - Sender: every wire transmission (direct request or coalesced
//     envelope) is tracked with a retransmission timer. On expiry the
//     still-unanswered requests are re-sent, the timeout doubles (capped
//     at RTOMax), and after MaxRetries expiries the destination kernel is
//     declared dead: all its outstanding futures complete with
//     ErrPeerDead, new requests to it fail fast, and the service
//     directory stops routing to it (service.go). Death is a per-observer
//     verdict — each kernel judges its peers from its own traffic only.
//   - Receiver: requests are deduplicated by (sender, sequence number),
//     so a retransmitted request whose original made it through dispatches
//     exactly once; the reply is cached (bounded FIFO, ReplyCache entries
//     per peer) and replayed for duplicates whose reply was the lost
//     message. Late or duplicate replies at the requester are counted
//     (LateReplies), never fatal.
//   - Credits: in reliable mode the sender's in-flight credit returns
//     when the transmission resolves (all replies in, or the peer
//     declared dead) instead of at receiver pickup — a lost request must
//     not leak the credit, and retransmits reuse the original's slot so
//     the receiver's bounded slot budget still holds.
//
// With neither Faults nor Reliability configured none of this code runs
// and the event trace is byte-identical to the baseline.

// Reliability tunes the reliable IKC mode. The zero value of each field
// selects its default.
type Reliability struct {
	// RTOBase is the initial retransmission timeout per transmission.
	RTOBase sim.Duration
	// RTOMax caps the exponential backoff.
	RTOMax sim.Duration
	// MaxRetries is the retry budget per transmission; one more expiry
	// declares the destination dead.
	MaxRetries int
	// ReplyCache bounds the per-peer reply-retransmission cache.
	ReplyCache int
}

// Reliable-mode defaults. The base timeout must comfortably exceed a
// loaded round trip (compose + NoC + dispatch queueing + handler work,
// which can itself block on nested round trips); 30µs (60k cycles at
// 2GHz) keeps spurious retransmits rare at the sweep's contention levels
// while recovering losses long before the makespan scale.
const (
	DefaultRTOBase    sim.Duration = 60_000
	DefaultRTOMax     sim.Duration = 960_000
	DefaultMaxRetries              = 8
	DefaultReplyCache              = 128
)

func (r Reliability) withDefaults() Reliability {
	if r.RTOBase == 0 {
		r.RTOBase = DefaultRTOBase
	}
	if r.RTOMax == 0 {
		r.RTOMax = DefaultRTOMax
	}
	if r.RTOMax < r.RTOBase {
		r.RTOMax = r.RTOBase
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = DefaultMaxRetries
	}
	if r.ReplyCache == 0 {
		r.ReplyCache = DefaultReplyCache
	}
	return r
}

// xmitState tracks one wire transmission — a direct request or a
// coalesced envelope of several — until every carried request is answered
// or the destination is declared dead.
type xmitState struct {
	dst       int
	kind      ikcKind
	env       bool // envelope (vectored) vs direct send
	reqs      []*ikcRequest
	remaining int
	tries     int
	rto       sim.Duration
	firstSent sim.Time
	retried   bool
	done      bool
}

type dedupState uint8

const (
	dedupInProgress dedupState = iota
	dedupDone
)

type dedupEntry struct {
	state dedupState
	rep   *ikcReply
}

// peerDedup is the receiver-side duplicate filter for one sending peer:
// every dispatched sequence number, with the reply cached once it exists.
// doneOrder drives FIFO eviction of completed entries beyond ReplyCache;
// in-progress entries are never evicted (their reply is still owed).
type peerDedup struct {
	entries   map[uint64]*dedupEntry
	doneOrder []uint64
}

// relState is one kernel's half of the reliable layer.
type relState struct {
	k   *Kernel
	cfg Reliability
	// bySeq maps every unanswered sequence number to its transmission.
	bySeq map[uint64]*xmitState
	// byDst lists the live transmissions per destination in first-send
	// order (a slice, not a map: dead-peer aborts must complete futures
	// in a deterministic order).
	byDst map[int][]*xmitState
	dedup map[int]*peerDedup
	// dead is this kernel's own verdict on its peers; sticky until the peer
	// rejoins with a newer incarnation (admitIncarnation).
	dead map[int]bool
	// peerInc is the highest incarnation number observed per peer; a
	// missing entry means the boot incarnation 1. Requests stamped with an
	// older incarnation are stale retransmits from before the peer's crash
	// and are rejected; a newer stamp admits the rejoined peer.
	peerInc map[int]uint32
}

func newRelState(k *Kernel, cfg Reliability) *relState {
	return &relState{
		k:       k,
		cfg:     cfg,
		bySeq:   make(map[uint64]*xmitState),
		byDst:   make(map[int][]*xmitState),
		dedup:   make(map[int]*peerDedup),
		dead:    make(map[int]bool),
		peerInc: make(map[int]uint32),
	}
}

// incOf returns the highest incarnation observed for a peer.
func (rt *relState) incOf(from int) uint32 {
	if inc, ok := rt.peerInc[from]; ok {
		return inc
	}
	return 1
}

// reliable reports whether this kernel runs the reliable IKC layer.
func (k *Kernel) reliable() bool { return k.rt != nil }

// peerDead reports whether this kernel has declared dst dead.
func (k *Kernel) peerDead(dst int) bool { return k.rt != nil && k.rt.dead[dst] }

// failFast completes a freshly minted request's future with ErrPeerDead
// without ever putting it on the wire.
func (rt *relState) failFast(seq uint64, dst int) {
	k := rt.k
	k.stats.FailFast++
	fut := k.pending[seq]
	delete(k.pending, seq)
	if fut != nil {
		fut.Complete(&ikcReply{Seq: seq, From: dst, Err: ErrPeerDead})
	}
}

// track registers a transmission that just left on the wire and arms its
// retransmission timer.
func (rt *relState) track(dst int, reqs []*ikcRequest, env bool, kind ikcKind) {
	xm := &xmitState{
		dst:       dst,
		kind:      kind,
		env:       env,
		reqs:      reqs,
		remaining: len(reqs),
		rto:       rt.cfg.RTOBase,
		firstSent: rt.k.sys.Eng.Now(),
	}
	for _, r := range reqs {
		rt.bySeq[r.Seq] = xm
	}
	rt.byDst[dst] = append(rt.byDst[dst], xm)
	rt.arm(xm)
}

func (rt *relState) arm(xm *xmitState) {
	rt.k.sys.Eng.Schedule(xm.rto, func() { rt.expire(xm) })
}

// onReply marks seq answered. When the last request of its transmission
// resolves, the transmission completes: the in-flight credit returns and
// a retransmitted transmission records its recovery latency.
func (rt *relState) onReply(seq uint64) {
	xm := rt.bySeq[seq]
	if xm == nil {
		return
	}
	delete(rt.bySeq, seq)
	xm.remaining--
	if xm.remaining > 0 || xm.done {
		return
	}
	xm.done = true
	rt.unlink(xm)
	k := rt.k
	if xm.retried {
		k.stats.Recovered++
		k.stats.RecoveryCycles += k.sys.Eng.Now() - xm.firstSent
	}
	k.inflightTo(xm.dst).Release()
}

// expire is the retransmission timer (event context). Still-unanswered
// requests of the transmission are re-sent with doubled timeout; past the
// retry budget the destination is declared dead instead.
func (rt *relState) expire(xm *xmitState) {
	if xm.done {
		return
	}
	k := rt.k
	if rt.dead[xm.dst] {
		rt.unlink(xm)
		rt.abort(xm)
		return
	}
	if xm.tries >= rt.cfg.MaxRetries {
		rt.markDead(xm.dst)
		return
	}
	xm.tries++
	xm.retried = true
	xm.rto = min(xm.rto*2, rt.cfg.RTOMax)
	// Only requests this transmission still owns are re-sent: a request
	// answered (or aborted) since the last send left bySeq.
	live := make([]*ikcRequest, 0, len(xm.reqs))
	for _, r := range xm.reqs {
		if rt.bySeq[r.Seq] == xm {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	k.stats.Retransmits++
	k.stats.Busy += k.sys.Cost.IKCCompose
	dk := k.sys.kernels[xm.dst]
	k.sys.Eng.Schedule(k.sys.Cost.IKCCompose, func() {
		if xm.done || rt.dead[xm.dst] {
			return
		}
		// No new in-flight credit: the retransmit reuses the original's
		// slot (the receiver either lost the original or will dedup this
		// copy, so its slot budget is respected either way).
		if xm.env {
			env := &ikcBatch{From: k.id, Kind: xm.kind, Reqs: live}
			must(k.dtu.SendVecTo(dk.pe, ikcBatchEP, env.items()))
		} else {
			for _, req := range live {
				k.sendRequest(dk, req)
			}
		}
	})
	rt.arm(xm)
}

// markDead is the degradation step: dst exhausted its retry budget, so
// this kernel stops talking to it. Every outstanding transmission aborts,
// completing its futures with ErrPeerDead in first-send order.
func (rt *relState) markDead(dst int) {
	if rt.dead[dst] {
		return
	}
	rt.dead[dst] = true
	rt.k.stats.DeadPeers++
	xms := rt.byDst[dst]
	delete(rt.byDst, dst)
	for _, xm := range xms {
		if !xm.done {
			rt.abort(xm)
		}
	}
}

// abort completes a transmission's unanswered futures with ErrPeerDead
// and returns its in-flight credit. The caller has already unlinked xm
// from byDst (or is draining the whole destination).
func (rt *relState) abort(xm *xmitState) {
	xm.done = true
	k := rt.k
	for _, req := range xm.reqs {
		if rt.bySeq[req.Seq] != xm {
			continue
		}
		delete(rt.bySeq, req.Seq)
		fut := k.pending[req.Seq]
		delete(k.pending, req.Seq)
		if fut != nil {
			fut.Complete(&ikcReply{Seq: req.Seq, From: xm.dst, Err: ErrPeerDead})
		}
	}
	k.inflightTo(xm.dst).Release()
}

// unlink removes xm from its destination's live list.
func (rt *relState) unlink(xm *xmitState) {
	xms := rt.byDst[xm.dst]
	for i, x := range xms {
		if x == xm {
			rt.byDst[xm.dst] = append(xms[:i], xms[i+1:]...)
			return
		}
	}
}

func (rt *relState) peer(src int) *peerDedup {
	pd := rt.dedup[src]
	if pd == nil {
		pd = &peerDedup{entries: make(map[uint64]*dedupEntry)}
		rt.dedup[src] = pd
	}
	return pd
}

// dedupCheck runs before dispatching a received request: true means
// dispatch it, false means it is a duplicate — suppressed, and if its
// reply is already cached, answered by replaying that reply (the original
// reply was evidently the lost message).
func (k *Kernel) dedupCheck(req *ikcRequest) bool {
	if k.rt == nil {
		return true
	}
	pd := k.rt.peer(req.From)
	if e := pd.entries[req.Seq]; e != nil {
		k.stats.DupSuppressed++
		if e.state == dedupDone && e.rep != nil {
			k.stats.ReplayedReplies++
			k.sendReply(k.sys.kernels[req.From], e.rep)
		}
		return false
	}
	pd.entries[req.Seq] = &dedupEntry{state: dedupInProgress}
	return true
}

// cacheReply records the reply for (from, seq) so a duplicate of the
// request can be answered by replay. Completed entries beyond the cache
// bound evict FIFO; with MaxInflight bounding concurrent requests per
// pair, a duplicate arriving after its entry's eviction would require a
// retransmit delayed past ReplyCache newer completions — out of scope by
// design (the sweep's timeouts resolve far sooner).
func (k *Kernel) cacheReply(from int, seq uint64, rep *ikcReply) {
	if k.rt == nil {
		return
	}
	pd := k.rt.peer(from)
	e := pd.entries[seq]
	if e == nil {
		e = &dedupEntry{}
		pd.entries[seq] = e
	}
	e.state = dedupDone
	e.rep = rep
	pd.doneOrder = append(pd.doneOrder, seq)
	for len(pd.doneOrder) > k.rt.cfg.ReplyCache {
		delete(pd.entries, pd.doneOrder[0])
		pd.doneOrder = pd.doneOrder[1:]
	}
}
