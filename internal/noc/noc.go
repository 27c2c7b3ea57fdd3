// Package noc models the network-on-chip that connects all processing
// elements (PEs) of the simulated machine.
//
// The model is a 2D mesh with dimension-ordered (XY) routing. Message
// latency is base + hops*(router+hop) + serialization, where serialization
// grows with the message size. Two latency regimes are supported:
//
//   - uncontended (default): links have infinite bandwidth; latency depends
//     only on distance and size, matching the paper's assumption of a
//     non-contended interconnect for the capability experiments, and
//   - contended: each mesh link serializes flits, so concurrent messages
//     crossing the same link queue up.
//
// Regardless of the regime, the network guarantees per-(src,dst) FIFO
// ordering, a stated precondition of the SemperOS distributed capability
// protocols ("if kernel K1 first sends a message M1 to kernel K2, followed
// by a message M2, then K2 has to receive M1 before M2").
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the mesh and its timing parameters. All latencies are in
// cycles. The zero value of a latency field is legal (that cost is skipped).
type Config struct {
	// Nodes is the number of attached PEs. Required.
	Nodes int
	// Width is the mesh width; 0 derives a near-square mesh.
	Width int
	// BaseLatency is charged once per message (injection + ejection).
	BaseLatency sim.Duration
	// HopLatency is the wire latency per hop.
	HopLatency sim.Duration
	// RouterLatency is the router pipeline latency per hop.
	RouterLatency sim.Duration
	// FlitBytes is the payload carried per flit (default 16).
	FlitBytes int
	// FlitLatency is the serialization cost per flit (default 1).
	FlitLatency sim.Duration
	// Contention enables per-link serialization.
	Contention bool
}

// DefaultConfig returns the timing parameters used throughout the
// reproduction: a lightweight mesh calibrated against the paper's
// microbenchmark magnitudes (a few hundred cycles per kernel round trip).
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		BaseLatency:   24,
		HopLatency:    2,
		RouterLatency: 3,
		FlitBytes:     16,
		FlitLatency:   1,
	}
}

// Stats aggregates network activity counters.
type Stats struct {
	Messages uint64
	Bytes    uint64
	HopsSum  uint64
	Lost     uint64 // messages dropped by a receiver (no free slot) or by fault injection
}

// pairKey packs a (src, dst) pair into one map key.
func pairKey(src, dst int) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

// Verdict is a fault injector's decision about one message: drop it,
// deliver it twice, and/or delay its arrival by Delay cycles. The zero
// Verdict delivers normally.
type Verdict struct {
	Drop  bool
	Dup   bool
	Delay sim.Duration
}

// Injector inspects every message at send time and returns its fate.
// Implementations (see internal/fault) must be deterministic functions of
// their own state and the arguments: the network calls Inspect exactly
// once per Send, in event order.
type Injector interface {
	Inspect(now sim.Time, src, dst, size int) Verdict
}

// Duplicator is implemented by delivery actions that carry per-message
// state. When the injector duplicates such a message, the copy fires the
// action Duplicate returns, a distinct object taken at send time, instead of
// the original action a second time.
type Duplicator interface {
	Duplicate() sim.Action
}

// Network is the mesh instance. It is bound to a sim.Engine and delivers
// messages by scheduling events.
type Network struct {
	eng    *sim.Engine
	cfg    Config
	width  int
	height int
	// lastDeliver enforces per-pair FIFO ordering.
	lastDeliver map[uint64]sim.Time
	// linkFree is the next-free time per directed link (contention mode).
	linkFree map[int]sim.Time
	stats    Stats
	// inj, when set, decides per message whether to drop, duplicate or
	// delay it (fault injection). Nil means the lossless fabric.
	inj Injector
}

// New creates a mesh network for cfg.Nodes PEs.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("noc: Config.Nodes must be positive")
	}
	if cfg.FlitBytes <= 0 {
		cfg.FlitBytes = 16
	}
	w := cfg.Width
	if w <= 0 {
		w = 1
		for w*w < cfg.Nodes {
			w++
		}
	}
	h := (cfg.Nodes + w - 1) / w
	return &Network{
		eng:         eng,
		cfg:         cfg,
		width:       w,
		height:      h,
		lastDeliver: make(map[uint64]sim.Time),
		linkFree:    make(map[int]sim.Time),
	}
}

// Nodes returns the number of attached PEs.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Stats returns a snapshot of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// CountLost increments the lost-message counter; receivers (DTUs) call it
// when a message arrives and no slot is free.
func (n *Network) CountLost() { n.stats.Lost++ }

func (n *Network) coord(node int) (x, y int) {
	return node % n.width, node / n.width
}

// Hops returns the XY-routed hop count between two PEs.
func (n *Network) Hops(src, dst int) int {
	sx, sy := n.coord(src)
	dx, dy := n.coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// SetInjector attaches a fault injector consulted once per Send. Passing
// nil restores the lossless fabric.
func (n *Network) SetInjector(inj Injector) { n.inj = inj }

// Latency returns the uncontended latency for a message of the given size.
func (n *Network) Latency(src, dst, size int) sim.Duration {
	hops := sim.Duration(n.Hops(src, dst))
	flits := sim.Duration((size + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes)
	if flits == 0 {
		flits = 1
	}
	return n.cfg.BaseLatency + hops*(n.cfg.HopLatency+n.cfg.RouterLatency) + flits*n.cfg.FlitLatency
}

// Send transmits a message of size bytes from src to dst and invokes deliver
// at the destination when it arrives. Delivery preserves per-(src,dst) FIFO
// order. Send may be called from event handlers and procs.
func (n *Network) Send(src, dst, size int, deliver func()) {
	n.SendAction(src, dst, size, sim.Func(deliver))
}

// SendAction is Send with the delivery as an Action: act fires at the
// destination when the message arrives. An object that already exists for
// the message (a DTU message) can be its own delivery, so sending allocates
// nothing.
//
// With an injector attached, a message may be dropped (act never fires),
// duplicated (a second delivery strictly after the original; see
// Duplicator) or delayed. All outcomes keep per-pair FIFO: a delayed or
// duplicated message pushes the pair's delivery horizon forward, and a
// dropped one still advances it to where it would have arrived — the wire
// consumed the message even though nobody receives it.
func (n *Network) SendAction(src, dst, size int, act sim.Action) {
	n.checkNode(src)
	n.checkNode(dst)
	n.stats.Messages++
	n.stats.Bytes += uint64(size)
	n.stats.HopsSum += uint64(n.Hops(src, dst))

	var v Verdict
	if n.inj != nil {
		v = n.inj.Inspect(n.eng.Now(), src, dst, size)
	}
	var arrival sim.Time
	if n.cfg.Contention {
		arrival = n.contendedArrival(src, dst, size)
	} else {
		arrival = n.eng.Now() + n.Latency(src, dst, size)
	}
	arrival += v.Delay
	key := pairKey(src, dst)
	if last, ok := n.lastDeliver[key]; ok && arrival < last {
		arrival = last
	}
	n.lastDeliver[key] = arrival
	if v.Drop {
		n.stats.Lost++
		return
	}
	n.eng.AtAction(arrival, act)
	if v.Dup {
		// The duplicate trails the original by at least one cycle so the
		// receiver observes two distinct delivery events in a fixed order.
		gap := n.cfg.FlitLatency
		if gap == 0 {
			gap = 1
		}
		dupAt := arrival + gap
		n.lastDeliver[key] = dupAt
		dup := act
		if d, ok := act.(Duplicator); ok {
			dup = d.Duplicate()
		}
		n.eng.AtAction(dupAt, dup)
	}
}

// directions for XY routing link identifiers.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func (n *Network) linkID(node, dir int) int { return node*4 + dir }

// contendedArrival walks the XY route, serializing the message on each link.
func (n *Network) contendedArrival(src, dst, size int) sim.Time {
	flits := sim.Duration((size + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes)
	if flits == 0 {
		flits = 1
	}
	ser := flits * n.cfg.FlitLatency
	t := n.eng.Now() + n.cfg.BaseLatency
	cx, cy := n.coord(src)
	dx, dy := n.coord(dst)
	step := func(node, dir, nx, ny int) (int, int) {
		l := n.linkID(node, dir)
		start := t
		if free := n.linkFree[l]; free > start {
			start = free
		}
		n.linkFree[l] = start + ser
		t = start + ser + n.cfg.HopLatency + n.cfg.RouterLatency
		return nx, ny
	}
	node := src
	for cx != dx {
		if cx < dx {
			cx, cy = step(node, dirEast, cx+1, cy)
		} else {
			cx, cy = step(node, dirWest, cx-1, cy)
		}
		node = cy*n.width + cx
	}
	for cy != dy {
		if cy < dy {
			cx, cy = step(node, dirSouth, cx, cy+1)
		} else {
			cx, cy = step(node, dirNorth, cx, cy-1)
		}
		node = cy*n.width + cx
	}
	if node == src { // src == dst: still charge serialization
		t += ser
	}
	return t
}

func (n *Network) checkNode(id int) {
	if id < 0 || id >= n.cfg.Nodes {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", id, n.cfg.Nodes))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
