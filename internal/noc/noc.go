// Package noc models the packet-switched network-on-chip that connects
// the processing elements and the DRAM tile.
//
// The network is a 2D mesh with dimension-ordered (XY) routing. The
// timing model is virtual cut-through: a packet's head pays a fixed
// per-hop router latency, the body streams at the link bandwidth, and
// each traversed link stays busy for the packet's serialization time.
// Under no contention the end-to-end latency of an S-byte packet over h
// hops is h*HopLatency + ceil(S/LinkBytesPerCycle) cycles — which gives
// the DTU its 8 bytes/cycle streaming bandwidth from the paper.
package noc

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies a mesh node: y*Width + x.
type NodeID int

// Packet is one network transfer. Size covers everything on the wire
// (header + payload). Payload is the semantic content interpreted by
// the destination's handler (a DTU message, an RDMA request, ...).
//
// Seq and Corrupt exist for the reliability layer: Seq is a nonzero
// sender-assigned sequence number on transfers that want end-to-end
// acknowledgement (zero means fire-and-forget), and Corrupt marks a
// packet whose header was damaged in flight by fault injection — the
// payload pointer survives in the model, but receivers must treat the
// packet as poisoned.
type Packet struct {
	//m3vet:resolve sharedstate message header fields are written by the packet's current owner under the pool hand-off discipline
	Src, Dst NodeID
	//m3vet:resolve sharedstate message written by the packet's current owner under the pool hand-off discipline
	Size int
	//m3vet:resolve sharedstate message written by the packet's current owner under the pool hand-off discipline
	Payload any
	//m3vet:resolve sharedstate message assigned by the sender before transmit; owner-exclusive per the pool discipline
	Seq uint64
	//m3vet:resolve sharedstate message set by the serial fault hook while the network owns the packet
	Corrupt bool

	// Span is the causal trace id of the request this packet belongs
	// to (zero: none). The DTU stamps it from the message header so
	// the observability layer can reconstruct a request's NoC flights.
	//m3vet:resolve sharedstate message written by the packet's current owner under the pool hand-off discipline
	Span uint64

	// Retain transfers ownership of a delivered fire-and-forget packet
	// (Seq == 0) to the handler: the network then does not recycle it
	// after Deliver returns, and the handler must call FreePacket once
	// done. Handlers that queue the packet for later processing (the
	// DTU's request server) set it inside Deliver. See FreePacket for
	// the full ownership rules.
	//m3vet:resolve sharedstate message set inside Deliver by the receiving handler, which owns the packet at that point
	Retain bool

	// next links the network's packet freelist.
	//m3vet:resolve sharedstate owner freelist links are only touched by NewPacket/FreePacket, which run on the engine goroutine or under its strict hand-off
	next *Packet
}

// LinkFault is a fault-injection verdict for one packet at one hop.
type LinkFault uint8

// Link fault verdicts.
const (
	// LinkOK passes the packet through unharmed.
	LinkOK LinkFault = iota
	// LinkDrop loses the packet at this hop: it pays full wire timing
	// up to and including the hop but is never delivered.
	LinkDrop
	// LinkCorrupt damages the packet's header; it is delivered with
	// Corrupt set and the receiver decides (NACK, drop, ...).
	LinkCorrupt
)

// FaultHook inspects a packet about to traverse the link from→to and
// returns a verdict. Hooks run in deterministic per-hop order along
// the route, so a seeded RNG consulted inside the hook yields a
// replayable fault schedule. Only internal/fault may install hooks
// (enforced by m3vet's faultsite rule).
type FaultHook func(from, to NodeID, pkt *Packet) LinkFault

// Handler consumes packets delivered at a node. Deliver runs in engine
// context and must not block; implementations hand work that needs
// simulated time to a resident process via queues/signals.
type Handler interface {
	Deliver(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Deliver calls f(pkt).
func (f HandlerFunc) Deliver(pkt *Packet) { f(pkt) }

// Config parameterizes a mesh network.
type Config struct {
	Width, Height int
	// HopLatency is the per-router head latency in cycles (default 3).
	HopLatency sim.Time
	// LinkBytesPerCycle is the link (and thus DTU streaming) bandwidth
	// (default 8, the paper's DTU bandwidth).
	LinkBytesPerCycle int
	// Unlimited disables link contention: packets still pay latency and
	// serialization but never queue. Figure 6 uses this ("we assume the
	// NoC scales perfectly").
	Unlimited bool
	// Torus adds wrap-around links in both dimensions, halving the
	// worst-case hop count; routing stays dimension-ordered and picks
	// the shorter direction per dimension.
	Torus bool
}

// Network is a 2D-mesh NoC.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	handlers []Handler
	//m3vet:resolve sharedstate owner link resources are created at boot and arbitrated in process context
	links map[linkKey]*sim.Resource
	//m3vet:resolve sharedstate owner lazily created in serial Send paths only
	linkBusy map[linkKey]*obs.Counter
	fault    FaultHook
	obs      *obs.Tracer

	// PacketsSent counts injected packets; BytesSent the wire bytes.
	//m3vet:resolve sharedstate owner NoC totals bump in Send/SendAsync, one context at a time under the engine's strict hand-off
	PacketsSent uint64
	//m3vet:resolve sharedstate owner NoC totals bump in Send/SendAsync, one context at a time under the engine's strict hand-off
	BytesSent uint64
	// PacketsDropped and PacketsCorrupted count fault-injected losses
	// and header corruptions.
	//m3vet:resolve sharedstate owner fault accounting happens inside serial link hooks
	PacketsDropped uint64
	//m3vet:resolve sharedstate owner fault accounting happens inside serial link hooks
	PacketsCorrupted uint64

	// free heads the packet freelist. All alloc/free sites run in
	// engine or process context, one at a time under the engine's
	// strict hand-off, so a plain list suffices.
	//m3vet:resolve sharedstate owner pool head moves only in NewPacket/FreePacket, serial by the ownership rules above
	free *Packet
}

type linkKey struct{ from, to NodeID }

// New returns a mesh network with Width*Height nodes.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 3
	}
	if cfg.LinkBytesPerCycle == 0 {
		cfg.LinkBytesPerCycle = 8
	}
	return &Network{
		eng:      eng,
		cfg:      cfg,
		handlers: make([]Handler, cfg.Width*cfg.Height),
		links:    make(map[linkKey]*sim.Resource),
		linkBusy: make(map[linkKey]*obs.Counter),
	}
}

// Metric names the network registers, keyed by LinkIndex (m3vet:
// metricname).
const (
	// MLinkBusy accumulates the cycles each directed link was occupied
	// by packet heads and bodies (router latency + serialization).
	MLinkBusy = "noc_link_busy_cycles_total"
	// MLinkQueued samples the packets waiting for each directed link.
	MLinkQueued = "noc_link_queued"
)

// LinkIndex encodes the directed link from→to as a dense metric index.
func (n *Network) LinkIndex(from, to NodeID) int {
	return int(from)*n.Nodes() + int(to)
}

// LinkByIndex decodes a LinkIndex.
func (n *Network) LinkByIndex(i int) (from, to NodeID) {
	return NodeID(i / n.Nodes()), NodeID(i % n.Nodes())
}

// Config returns the network parameters.
func (n *Network) Config() Config { return n.cfg }

// NewPacket takes a zeroed packet from the network's pool (or the heap
// on a cold start). Senders on the hot path use it instead of a
// literal so steady-state traffic allocates nothing per packet.
//
// Ownership rules, enforced by TestPacketPoolHygiene and the
// differential harness:
//   - Seq != 0 (reliable transfers): the sender owns the packet across
//     delivery and retransmissions — delivery is synchronous in the
//     model, so no copy is ever in flight — and frees it when the
//     transfer completes or is abandoned.
//   - Seq == 0, delivered: the network frees it after Deliver returns,
//     unless the handler took ownership via Retain (it then frees after
//     consuming, e.g. the DTU request server after responding).
//   - Seq == 0, dropped by fault injection: the network frees it.
func (n *Network) NewPacket() *Packet {
	pkt := n.free
	if pkt == nil {
		return &Packet{}
	}
	n.free = pkt.next
	pkt.next = nil
	return pkt
}

// FreePacket zeroes pkt — pool hygiene: no stale payload, sequence
// number, span, fault flag, or Retain mark may survive on the freelist
// — and returns it to the pool. Freeing a packet that was never
// allocated from the pool is legal and grows the pool.
func (n *Network) FreePacket(pkt *Packet) {
	*pkt = Packet{next: n.free}
	n.free = pkt
}

// finishDelivery applies the fire-and-forget ownership rule after a
// packet was handed to its handler.
func (n *Network) finishDelivery(pkt *Packet) {
	if pkt.Seq == 0 && !pkt.Retain {
		n.FreePacket(pkt)
	}
}

// SetObserver installs the structured tracer (wired by the platform at
// build time; nil keeps observability off).
func (n *Network) SetObserver(tr *obs.Tracer) { n.obs = tr }

// Nodes returns the number of mesh nodes.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Attach registers the handler that consumes packets addressed to id.
func (n *Network) Attach(id NodeID, h Handler) {
	n.checkNode(id)
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("noc: node %d already attached", id))
	}
	n.handlers[id] = h
}

// XY returns the mesh coordinates of id.
func (n *Network) XY(id NodeID) (x, y int) {
	n.checkNode(id)
	return int(id) % n.cfg.Width, int(id) / n.cfg.Width
}

// ID returns the node id at mesh coordinates (x, y).
func (n *Network) ID(x, y int) NodeID {
	id := NodeID(y*n.cfg.Width + x)
	n.checkNode(id)
	return id
}

// Route returns the XY route from src to dst as the sequence of visited
// nodes, excluding src and including dst. An empty route means src ==
// dst (local delivery). On a torus, each dimension walks the shorter
// direction, wrapping around the edge.
func (n *Network) Route(src, dst NodeID) []NodeID {
	sx, sy := n.XY(src)
	dx, dy := n.XY(dst)
	var route []NodeID
	x, y := sx, sy
	stepX := n.step(sx, dx, n.cfg.Width)
	for x != dx {
		x = wrap(x+stepX, n.cfg.Width)
		route = append(route, n.ID(x, y))
	}
	stepY := n.step(sy, dy, n.cfg.Height)
	for y != dy {
		y = wrap(y+stepY, n.cfg.Height)
		route = append(route, n.ID(x, y))
	}
	return route
}

// step returns the per-hop delta (+1 or -1) to move from a to b along
// a dimension of the given extent.
func (n *Network) step(a, b, extent int) int {
	if a == b {
		return 0
	}
	forward := wrap(b-a, extent)
	if n.cfg.Torus && forward > extent-forward {
		return -1
	}
	if !n.cfg.Torus && b < a {
		return -1
	}
	return 1
}

func wrap(v, extent int) int {
	v %= extent
	if v < 0 {
		v += extent
	}
	return v
}

// Hops returns the number of router hops between src and dst.
func (n *Network) Hops(src, dst NodeID) int {
	sx, sy := n.XY(src)
	dx, dy := n.XY(dst)
	hx, hy := abs(sx-dx), abs(sy-dy)
	if n.cfg.Torus {
		if w := n.cfg.Width - hx; w < hx {
			hx = w
		}
		if w := n.cfg.Height - hy; w < hy {
			hy = w
		}
	}
	return hx + hy
}

// SerializationTime returns the cycles the body of a size-byte packet
// occupies a link.
func (n *Network) SerializationTime(size int) sim.Time {
	bpc := n.cfg.LinkBytesPerCycle
	return sim.Time((size + bpc - 1) / bpc)
}

// TransferTime returns the uncontended end-to-end latency of a
// size-byte packet from src to dst.
func (n *Network) TransferTime(src, dst NodeID, size int) sim.Time {
	return sim.Time(n.Hops(src, dst))*n.cfg.HopLatency + n.SerializationTime(size)
}

// Send injects pkt, blocking p for the end-to-end transfer time plus
// any link queueing, then delivers it to the destination handler. The
// calling process models the transfer engine pushing the packet (a DTU
// command or a memory tile streaming a response).
func (n *Network) Send(p *sim.Process, pkt *Packet) {
	n.checkNode(pkt.Src)
	n.checkNode(pkt.Dst)
	n.PacketsSent++
	n.BytesSent += uint64(pkt.Size)
	ser := n.SerializationTime(pkt.Size)
	if tr := n.obs; tr.On() && pkt.Span != 0 {
		tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Src), Layer: obs.LNoC,
			Kind: obs.EvPktInject, Span: obs.SpanID(pkt.Span),
			Arg0: uint64(pkt.Dst), Arg1: uint64(pkt.Size)})
	}
	dropped := false
	if pkt.Src != pkt.Dst {
		prev := pkt.Src
		for _, next := range n.Route(pkt.Src, pkt.Dst) {
			link := n.link(prev, next)
			if link != nil {
				link.Acquire(p, 1)
				// The link stays busy while the body streams through;
				// the head moves on after the router latency.
				lk := link
				n.eng.Schedule(n.cfg.HopLatency+ser, func() { lk.Release(1) })
			}
			if tr := n.obs; tr.On() {
				tr.Hist(obs.HLinkOcc).Observe(uint64(n.cfg.HopLatency + ser))
				n.linkBusy[linkKey{prev, next}].Add(uint64(n.cfg.HopLatency + ser))
			}
			p.Sleep(n.cfg.HopLatency)
			if !dropped {
				dropped = n.applyFault(prev, next, pkt)
			}
			prev = next
		}
	}
	// Body drains into the destination. A dropped packet still occupied
	// the wire up to the faulty hop; the sender's transfer engine is
	// blind to the loss and pays the full push either way.
	p.Sleep(ser)
	if dropped {
		if pkt.Seq == 0 {
			n.FreePacket(pkt)
		}
		return
	}
	h := n.handlers[pkt.Dst]
	if h == nil {
		panic(fmt.Sprintf("noc: packet for unattached node %d", pkt.Dst))
	}
	if tr := n.obs; tr.On() && pkt.Span != 0 {
		tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Dst), Layer: obs.LNoC,
			Kind: obs.EvPktDeliver, Span: obs.SpanID(pkt.Span),
			Arg0: uint64(pkt.Src), Arg1: uint64(pkt.Size)})
	}
	h.Deliver(pkt)
	n.finishDelivery(pkt)
}

// SendAsync injects pkt without a sending process: the packet pays the
// uncontended end-to-end latency and is delivered via a scheduled
// event. It models autonomous DTU control traffic (acknowledgements,
// probes) emitted from engine context where no process is available.
// Link occupancy is not modelled for these few-byte control packets.
func (n *Network) SendAsync(pkt *Packet) {
	n.checkNode(pkt.Src)
	n.checkNode(pkt.Dst)
	n.PacketsSent++
	n.BytesSent += uint64(pkt.Size)
	dropped := false
	if pkt.Src != pkt.Dst {
		prev := pkt.Src
		for _, next := range n.Route(pkt.Src, pkt.Dst) {
			if !dropped {
				dropped = n.applyFault(prev, next, pkt)
			}
			prev = next
		}
	}
	if dropped {
		if pkt.Seq == 0 {
			n.FreePacket(pkt)
		}
		return
	}
	h := n.handlers[pkt.Dst]
	if h == nil {
		panic(fmt.Sprintf("noc: packet for unattached node %d", pkt.Dst))
	}
	n.eng.Schedule(n.TransferTime(pkt.Src, pkt.Dst, pkt.Size), func() {
		h.Deliver(pkt)
		n.finishDelivery(pkt)
	})
}

// SetFaultHook installs (or, with nil, removes) the per-hop fault
// hook. Only internal/fault may call this (m3vet: faultsite).
func (n *Network) SetFaultHook(hook FaultHook) { n.fault = hook }

// applyFault consults the fault hook for one hop and applies the
// verdict. It reports whether the packet was dropped.
func (n *Network) applyFault(from, to NodeID, pkt *Packet) bool {
	if n.fault == nil {
		return false
	}
	switch n.fault(from, to, pkt) {
	case LinkDrop:
		n.PacketsDropped++
		if tr := n.obs; tr.On() {
			tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Src), Layer: obs.LNoC,
				Kind: obs.EvPktDrop, Span: obs.SpanID(pkt.Span),
				Arg0: uint64(pkt.Dst), Arg1: pkt.Seq,
				Arg2: uint64(from)<<32 | uint64(uint32(to))})
		}
		return true
	case LinkCorrupt:
		if !pkt.Corrupt {
			pkt.Corrupt = true
			n.PacketsCorrupted++
			if tr := n.obs; tr.On() {
				tr.Emit(obs.Event{At: n.eng.Now(), PE: int32(pkt.Src), Layer: obs.LNoC,
					Kind: obs.EvPktCorrupt, Span: obs.SpanID(pkt.Span),
					Arg0: uint64(pkt.Dst), Arg1: pkt.Seq,
					Arg2: uint64(from)<<32 | uint64(uint32(to))})
			}
		}
	}
	return false
}

// link returns the contention resource for the directed link prev→next,
// or nil when contention modelling is disabled.
func (n *Network) link(prev, next NodeID) *sim.Resource {
	if n.cfg.Unlimited {
		return nil
	}
	k := linkKey{prev, next}
	r, ok := n.links[k]
	if !ok {
		r = sim.NewResource(n.eng, 1)
		n.links[k] = r
		if tr := n.obs; tr.On() {
			idx := n.LinkIndex(prev, next)
			n.linkBusy[k] = tr.Metrics().Counter(MLinkBusy, idx)
			res := r
			tr.Metrics().Series(MLinkQueued, idx, func() int64 { return int64(res.QueueLen()) })
		}
	}
	return r
}

func (n *Network) checkNode(id NodeID) {
	if int(id) < 0 || int(id) >= len(n.handlers) {
		panic(fmt.Sprintf("noc: node %d out of range (mesh %dx%d)", id, n.cfg.Width, n.cfg.Height))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
