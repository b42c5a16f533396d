package dtu

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Errors returned by DTU operations. They model conditions the real
// hardware signals through status registers.
var (
	ErrBadEndpoint   = errors.New("dtu: endpoint misconfigured for this operation")
	ErrNoCredits     = errors.New("dtu: send denied, no credits left")
	ErrMsgTooLarge   = errors.New("dtu: message exceeds configured size")
	ErrNotPrivileged = errors.New("dtu: operation requires a privileged DTU")
	ErrPerms         = errors.New("dtu: memory endpoint permission denied")
	ErrBounds        = errors.New("dtu: access outside memory endpoint region")
	ErrNoReply       = errors.New("dtu: message does not permit a reply")
	ErrRemote        = errors.New("dtu: remote operation failed")
	// ErrTimeout reports a transfer or remote operation that stayed
	// unacknowledged through the whole retry budget. It only occurs
	// with fault injection enabled (see EnableFaults); the lossless
	// model never times out.
	ErrTimeout = errors.New("dtu: operation timed out")
)

// DTU is one data transfer unit instance, attached to a PE's core as a
// memory-mapped device and to the NoC as the PE's only external
// interface.
type DTU struct {
	eng  *sim.Engine
	net  *noc.Network
	node noc.NodeID
	spm  *mem.SPM

	//m3vet:resolve sharedstate owner endpoint table is configured and drained in process or serial delivery context
	eps []epState
	//m3vet:resolve sharedstate owner flipped only by serial config-request handling
	privileged bool

	// MsgAvail fires whenever a message or reply arrives at any receive
	// endpoint; cores use it to model polling the DTU status register
	// without burning simulated host CPU.
	MsgAvail *sim.Signal
	// CreditAvail fires whenever credits are restored at any send
	// endpoint.
	CreditAvail *sim.Signal

	//m3vet:resolve sharedstate owner operation ids are minted in process context
	nextOp uint64
	//m3vet:resolve sharedstate owner pending-op table is mutated in process context and serial delivery
	pending map[uint64]*pendingOp

	// Reliability state, live only when faults is non-nil (see
	// EnableFaults): outstanding acknowledged transfers by sequence
	// number, received (sender, seq) pairs for duplicate suppression,
	// and the core-liveness callback probes read.
	faults *FaultConfig
	//m3vet:resolve sharedstate owner sequence numbers are minted in transmit, process context
	nextSeq uint64
	//m3vet:resolve sharedstate owner the send table is inserted/deleted in transmit and read in Deliver, one context at a time under the engine's strict hand-off
	sends map[uint64]*pendingSend
	//m3vet:resolve sharedstate owner dedup windows are updated in Deliver, which runs on the engine goroutine
	seen       map[noc.NodeID]*dedupState
	coreStatus func() bool

	// reqs feeds the DTU's internal engine that serves incoming RDMA
	// accesses to the local SPM and remote configuration requests.
	reqs *sim.Queue[*noc.Packet]

	// msgFree heads this DTU's message freelist. Messages are pooled
	// conservatively: allocated here at Send/Reply, recycled only where
	// a message is provably dead — the receive-side drop paths, where
	// the message was never inserted into a ringbuffer and no other
	// reference exists (the reliable layer acked and deduplicated
	// before receive, so no retransmission resurrects the pointer).
	// Delivered messages are never recycled: their Data legally
	// escapes into software (kif.IStream wraps it).
	//m3vet:resolve sharedstate owner pool head moves in newMessage (process context) and freeMessage (serial receive drops)
	msgFree *Message

	// waitingSince is the start of the core's in-progress DTU wait
	// (valid while waiting is true), so utilization measurements see
	// idle time that has not completed yet.
	//m3vet:resolve sharedstate owner wait bookkeeping is touched by the owning core's process only
	waiting bool
	//m3vet:resolve sharedstate owner wait bookkeeping is touched by the owning core's process only
	waitingSince sim.Time

	// obs is the structured tracer (nil-safe; see package obs) and
	// curSpan the one-slot span register: software arms it with
	// StampSpan before issuing an operation, the DTU consumes it when
	// the message or transfer is actually built. The register survives
	// credit-denied retries because consumption happens only on the
	// successful attempt.
	obs *obs.Tracer
	//m3vet:resolve sharedstate owner the span register is armed and consumed by the owning core's process
	curSpan uint64

	// Overload-control state, live only when overload is non-nil (see
	// EnableOverload): the admission/deadline configuration and the
	// one-slot deadline register software arms with StampDeadline, a
	// sibling of the span register below.
	overload *OverloadConfig
	//m3vet:resolve sharedstate owner the deadline register is armed and consumed by the owning core's process
	curDeadline sim.Time

	// Cached metric handles (nil-safe, inert without a tracer); the
	// registry entries are keyed by node id. The overload counters are
	// registered lazily on first increment — see overload.go.
	mCreditStalls  *obs.Counter
	mRetransmits   *obs.Counter
	mNacks         *obs.Counter
	//m3vet:resolve sharedstate owner registered lazily in serial delivery context (admit runs in Deliver)
	mDeadlineDrops *obs.Counter
	//m3vet:resolve sharedstate owner registered lazily in serial delivery context (admit runs in Deliver)
	mAdmitRefusals *obs.Counter

	Stats Stats
}

// Metric names this DTU registers, keyed by NoC node id (m3vet:
// metricname — names must stay package-level constants).
const (
	// MCreditStalls counts send attempts denied for lack of credits:
	// the paper's flow-control backpressure made visible.
	MCreditStalls = "dtu_credit_stalls_total"
	// MRetransmits counts reliability-layer retransmissions.
	MRetransmits = "dtu_retransmits_total"
	// MNacks counts NACKs this DTU sent for poisoned packets.
	MNacks = "dtu_nacks_total"
	// MRxQueued samples the occupied receive-ringbuffer slots across
	// all endpoints (queue depth over simulated time).
	MRxQueued = "dtu_rx_queued"
)

// SetObserver installs the structured tracer (wired by the platform)
// and registers the DTU's metrics with it.
func (d *DTU) SetObserver(tr *obs.Tracer) {
	d.obs = tr
	if tr.On() {
		m := tr.Metrics()
		d.mCreditStalls = m.Counter(MCreditStalls, int(d.node))
		d.mRetransmits = m.Counter(MRetransmits, int(d.node))
		d.mNacks = m.Counter(MNacks, int(d.node))
		m.Series(MRxQueued, int(d.node), func() int64 { return int64(d.RxQueued()) })
	}
}

// RxQueued returns the occupied receive-ringbuffer slots across all
// endpoints — the DTU's instantaneous receive queue depth.
func (d *DTU) RxQueued() int {
	n := 0
	for i := range d.eps {
		if d.eps[i].Type == EpReceive {
			n += d.eps[i].occupied
		}
	}
	return n
}

// newMessage takes a message from the freelist (or the heap on a pool
// miss). The returned message is zeroed except for the fields the
// caller sets; Data is always nil — data buffers are never recycled
// across messages, so no receiver can observe another VPE's bytes
// through the pool.
func (d *DTU) newMessage() *Message {
	m := d.msgFree
	if m == nil {
		return &Message{}
	}
	d.msgFree = m.next
	m.next = nil
	return m
}

// freeMessage zeroes a provably dead message and returns it to the
// pool. Pool hygiene is absolute: no stale span, reply capability
// (replyNode/replyEP/replyLabel/creditEP), label, data, or
// acked/replied state may survive — a leak here would hand the next
// receiver a forged reply capability or another VPE's payload
// (TestMessagePoolHygiene).
func (d *DTU) freeMessage(m *Message) {
	*m = Message{next: d.msgFree}
	d.msgFree = m
}

// StampSpan arms the span register: the next message or RDMA transfer
// this DTU builds carries the id in its header. Software calls it at
// the root of a request (syscall issue, service call).
func (d *DTU) StampSpan(span obs.SpanID) { d.curSpan = uint64(span) }

// takeSpan consumes the span register.
func (d *DTU) takeSpan() uint64 {
	s := d.curSpan
	d.curSpan = 0
	return s
}

// IdleCyclesAt returns the core's accumulated DTU-wait idle time as of
// now, including a wait still in progress.
func (d *DTU) IdleCyclesAt(now sim.Time) uint64 {
	idle := d.Stats.IdleCycles
	if d.waiting && now > d.waitingSince {
		idle += uint64(now - d.waitingSince)
	}
	return idle
}

// idleWait wraps a blocking signal wait with idle accounting.
func (d *DTU) idleWait(p *sim.Process, sig *sim.Signal) {
	t0 := d.eng.Now()
	d.waiting, d.waitingSince = true, t0
	sig.Wait(p)
	d.waiting = false
	d.Stats.IdleCycles += uint64(d.eng.Now() - t0)
}

// New creates a DTU for the PE at node, attaches it to the network, and
// starts its internal request server. All DTUs boot privileged (the
// paper: "all DTUs are privileged at boot"); the kernel downgrades
// application PEs during boot.
func New(eng *sim.Engine, net *noc.Network, node noc.NodeID, spm *mem.SPM, numEPs int) *DTU {
	if numEPs <= 0 {
		numEPs = DefaultNumEndpoints
	}
	d := &DTU{
		eng:         eng,
		net:         net,
		node:        node,
		spm:         spm,
		eps:         make([]epState, numEPs),
		privileged:  true,
		MsgAvail:    sim.NewSignal(eng),
		CreditAvail: sim.NewSignal(eng),
		pending:     make(map[uint64]*pendingOp),
		sends:       make(map[uint64]*pendingSend),
		seen:        make(map[noc.NodeID]*dedupState),
		reqs:        sim.NewQueue[*noc.Packet](eng),
	}
	net.Attach(node, d)
	eng.Spawn(fmt.Sprintf("dtu%d-server", node), d.serve)
	return d
}

// Node returns the NoC node this DTU is attached to.
func (d *DTU) Node() noc.NodeID { return d.node }

// Privileged reports the DTU's privilege state.
func (d *DTU) Privileged() bool { return d.privileged }

// SetPrivileged changes privilege locally (used by the platform at
// boot; at run time privilege changes travel as config packets).
func (d *DTU) SetPrivileged(v bool) { d.privileged = v }

// NumEndpoints returns the endpoint count.
func (d *DTU) NumEndpoints() int { return len(d.eps) }

// EP returns a copy of the endpoint registers (software-visible state).
func (d *DTU) EP(i int) Endpoint { return d.eps[i].Endpoint }

// Configure writes endpoint i's registers. Locally this requires a
// privileged DTU — application PEs were downgraded at boot and must ask
// the kernel instead.
func (d *DTU) Configure(i int, cfg Endpoint) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	return d.applyConfig(i, cfg)
}

func (d *DTU) applyConfig(i int, cfg Endpoint) error {
	if i < 0 || i >= len(d.eps) {
		return fmt.Errorf("%w: endpoint %d of %d", ErrBadEndpoint, i, len(d.eps))
	}
	if cfg.Type == EpReceive {
		if cfg.SlotSize <= HeaderSize || cfg.SlotCount <= 0 {
			return fmt.Errorf("%w: receive endpoint needs slots larger than the header", ErrBadEndpoint)
		}
		if cfg.BufAddr < 0 || cfg.BufAddr+cfg.BufSize() > d.spm.Size() {
			return fmt.Errorf("%w: ringbuffer outside SPM", ErrBounds)
		}
	}
	d.eps[i] = epState{Endpoint: cfg}
	d.Stats.ConfigsApplied++
	return nil
}

// Send transmits data through send endpoint ep. If replyEP >= 0 it
// names a local receive endpoint for the direct reply and replyLabel
// the label the reply will carry. The calling process is blocked for
// the NoC injection and delivery time (the paper's software then polls
// for the reply; see WaitMsg).
func (d *DTU) Send(p *sim.Process, ep int, data []byte, replyEP int, replyLabel uint64) error {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpSend {
		return ErrBadEndpoint
	}
	s := &d.eps[ep]
	if len(data) > s.MsgSize {
		return ErrMsgTooLarge
	}
	if s.Credits == 0 {
		d.Stats.SendsDenied++
		if tr := d.obs; tr.On() {
			d.mCreditStalls.Inc()
		}
		return ErrNoCredits
	}
	if replyEP >= 0 {
		if replyEP >= len(d.eps) || d.eps[replyEP].Type != EpReceive {
			return fmt.Errorf("%w: reply endpoint %d not a receive endpoint", ErrBadEndpoint, replyEP)
		}
	}
	if s.Credits != UnlimitedCredits {
		s.Credits--
	}
	msg := d.newMessage()
	msg.Label = s.Label
	msg.Data = append([]byte(nil), data...)
	msg.replyNode = d.node
	msg.replyEP = replyEP
	msg.replyLabel = replyLabel
	msg.creditEP = ep
	msg.Span = d.takeSpan()
	if d.overload != nil {
		msg.Deadline = d.takeDeadline()
	}
	msg.sentAt = d.eng.Now()
	d.Stats.MsgsSent++
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvMsgSend, Span: obs.SpanID(msg.Span),
			Arg0: uint64(ep), Arg1: uint64(s.Target), Arg2: uint64(len(data))})
	}
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, s.Target, msgWireSize(len(data)), msg.Span
	pkt.Payload = &msgPacket{TargetEP: s.TargetEP, Msg: msg}
	return d.transmit(p, pkt)
}

// RDMA direction tags for EvXferStart/End Arg0.
const (
	xferRead  = 1
	xferWrite = 2
)

// Reply sends data back to the sender of msg, which was fetched from
// receive endpoint ep. The reply restores one credit at the sender's
// send endpoint. Each message can be replied to once; replying also
// acks the message (frees its ringbuffer slot).
func (d *DTU) Reply(p *sim.Process, ep int, msg *Message, data []byte) error {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpReceive {
		return ErrBadEndpoint
	}
	if !msg.CanReply() {
		return ErrNoReply
	}
	if msg.replied {
		return fmt.Errorf("%w: already replied", ErrNoReply)
	}
	msg.replied = true
	d.Ack(ep, msg)
	reply := d.newMessage()
	reply.Label = msg.replyLabel
	reply.Data = append([]byte(nil), data...)
	reply.replyNode = d.node
	reply.replyEP = -1
	reply.Span = msg.Span
	reply.sentAt = d.eng.Now()
	d.Stats.Replies++
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvReplySend, Span: obs.SpanID(reply.Span),
			Arg0: uint64(ep), Arg1: uint64(msg.replyNode), Arg2: uint64(len(data))})
	}
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, msg.replyNode, msgWireSize(len(data)), reply.Span
	pkt.Payload = &replyPacket{TargetEP: msg.replyEP, CreditEP: msg.creditEP, Msg: reply}
	return d.transmit(p, pkt)
}

// Fetch returns the oldest unfetched message at receive endpoint ep, or
// nil if none arrived. The slot stays occupied until Ack or Reply.
func (d *DTU) Fetch(ep int) *Message {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpReceive {
		return nil
	}
	r := &d.eps[ep]
	if len(r.arrived) == 0 {
		return nil
	}
	m := r.arrived[0]
	r.arrived = r.arrived[1:]
	return m
}

// Ack frees the ringbuffer slot of a fetched message (the software
// advancing the read position).
func (d *DTU) Ack(ep int, msg *Message) {
	if msg.acked {
		return
	}
	msg.acked = true
	if ep >= 0 && ep < len(d.eps) && d.eps[ep].Type == EpReceive {
		d.eps[ep].occupied--
	}
}

// HasMsg reports whether receive endpoint ep holds an unfetched
// message.
func (d *DTU) HasMsg(ep int) bool {
	return ep >= 0 && ep < len(d.eps) && d.eps[ep].Type == EpReceive && len(d.eps[ep].arrived) > 0
}

// WaitMsg blocks until one of the given receive endpoints (all receive
// endpoints if none are named) holds a message, then fetches and
// returns it together with the endpoint index. It models the core
// polling the DTU's message-status register.
func (d *DTU) WaitMsg(p *sim.Process, eps ...int) (*Message, int) {
	for {
		if len(eps) == 0 {
			// d.eps is a slice, so this scan is in fixed endpoint order
			// (lowest endpoint wins) — deterministic, unlike a map walk.
			for i := range d.eps {
				if m := d.Fetch(i); m != nil {
					return m, i
				}
			}
		} else {
			for _, i := range eps {
				if m := d.Fetch(i); m != nil {
					return m, i
				}
			}
		}
		d.idleWait(p, d.MsgAvail)
	}
}

// WaitMsgDeadline is WaitMsg with a cycle budget: if no message arrives
// within deadline cycles it gives up and returns (nil, -1). A deadline
// of zero means no budget — the call degenerates to WaitMsg and, by the
// zero-extra-events discipline, schedules nothing.
func (d *DTU) WaitMsgDeadline(p *sim.Process, deadline sim.Time, eps ...int) (*Message, int) {
	if deadline <= 0 {
		return d.WaitMsg(p, eps...)
	}
	expired := false
	d.eng.Schedule(deadline, func() {
		// The waiter may long since have fetched its message and moved
		// on; the broadcast then only causes other parked waiters to
		// re-check their predicates, which is harmless and deterministic.
		expired = true
		d.MsgAvail.Broadcast()
	})
	for {
		for _, i := range eps {
			if m := d.Fetch(i); m != nil {
				return m, i
			}
		}
		if expired {
			return nil, -1
		}
		d.idleWait(p, d.MsgAvail)
	}
}

// WaitCredits blocks until send endpoint ep has at least one credit.
func (d *DTU) WaitCredits(p *sim.Process, ep int) error {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpSend {
		return ErrBadEndpoint
	}
	for d.eps[ep].Credits == 0 {
		d.idleWait(p, d.CreditAvail)
	}
	return nil
}

// WaitCreditsDeadline is WaitCredits with a cycle budget: if the
// endpoint regains no credit within deadline cycles it returns
// ErrTimeout. A zero deadline degenerates to WaitCredits and schedules
// nothing.
func (d *DTU) WaitCreditsDeadline(p *sim.Process, ep int, deadline sim.Time) error {
	if deadline <= 0 {
		return d.WaitCredits(p, ep)
	}
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpSend {
		return ErrBadEndpoint
	}
	expired := false
	d.eng.Schedule(deadline, func() {
		expired = true
		d.CreditAvail.Broadcast()
	})
	for d.eps[ep].Credits == 0 {
		if expired {
			return ErrTimeout
		}
		d.idleWait(p, d.CreditAvail)
	}
	return nil
}

// Credits returns the remaining credits of send endpoint ep.
func (d *DTU) Credits(ep int) int { return d.eps[ep].Credits }

// ReadMem transfers len(buf) bytes from offset off of the memory region
// behind memory endpoint ep into buf (and conceptually into the local
// SPM). The calling process blocks until the data arrived — the
// paper's software polls a DTU register for transfer completion.
func (d *DTU) ReadMem(p *sim.Process, ep int, off int, buf []byte) error {
	m, err := d.memEP(ep, off, len(buf), PermRead)
	if err != nil {
		return err
	}
	span, t0 := d.takeSpan(), d.eng.Now()
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: t0, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferStart, Span: obs.SpanID(span),
			Arg0: xferRead, Arg1: uint64(len(buf))})
	}
	resp, err := d.doOp(p, func(op uint64) {
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, m.MemTarget, ctrlPacketSize, span
		pkt.Payload = &MemReadReq{OpID: op, Src: d.node, Addr: m.MemAddr + off, Len: len(buf)}
		d.net.Send(p, pkt)
	})
	if tr := d.obs; tr.On() {
		now := d.eng.Now()
		tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferEnd, Span: obs.SpanID(span),
			Arg0: xferRead, Arg1: uint64(len(buf))})
		tr.Hist(obs.HXfer).Observe(uint64(now - t0))
	}
	if err != nil {
		return err
	}
	if resp.resp.Err != "" {
		return fmt.Errorf("%w: %s", ErrRemote, resp.resp.Err)
	}
	copy(buf, resp.resp.Data)
	d.Stats.MemReads++
	d.Stats.BytesRead += uint64(len(buf))
	return nil
}

// WriteMem transfers data to offset off of the memory region behind
// memory endpoint ep. It blocks until the target acknowledged the
// write.
func (d *DTU) WriteMem(p *sim.Process, ep int, off int, data []byte) error {
	m, err := d.memEP(ep, off, len(data), PermWrite)
	if err != nil {
		return err
	}
	span, t0 := d.takeSpan(), d.eng.Now()
	if tr := d.obs; tr.On() {
		tr.Emit(obs.Event{At: t0, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferStart, Span: obs.SpanID(span),
			Arg0: xferWrite, Arg1: uint64(len(data))})
	}
	resp, err := d.doOp(p, func(op uint64) {
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, m.MemTarget, msgWireSize(len(data)), span
		pkt.Payload = &MemWriteReq{OpID: op, Src: d.node, Addr: m.MemAddr + off, Data: append([]byte(nil), data...)}
		d.net.Send(p, pkt)
	})
	if tr := d.obs; tr.On() {
		now := d.eng.Now()
		tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvXferEnd, Span: obs.SpanID(span),
			Arg0: xferWrite, Arg1: uint64(len(data))})
		tr.Hist(obs.HXfer).Observe(uint64(now - t0))
	}
	if err != nil {
		return err
	}
	if resp.resp.Err != "" {
		return fmt.Errorf("%w: %s", ErrRemote, resp.resp.Err)
	}
	d.Stats.MemWrites++
	d.Stats.BytesWritten += uint64(len(data))
	return nil
}

func (d *DTU) memEP(ep, off, n int, need Perm) (*epState, error) {
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpMemory {
		return nil, ErrBadEndpoint
	}
	m := &d.eps[ep]
	if m.MemPerms&need == 0 {
		return nil, ErrPerms
	}
	if off < 0 || n < 0 || off+n > m.MemSize {
		return nil, ErrBounds
	}
	return m, nil
}

// GrantCredits restores credits at a send endpoint of the DTU at
// target without rewriting the whole endpoint: the paper's second
// refill path, "refilled by either the receiver (typically when
// replying) or an OS kernel" (§4.4.3). Privileged DTUs only.
func (d *DTU) GrantCredits(p *sim.Process, target noc.NodeID, sendEP, credits int) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	if credits <= 0 {
		return fmt.Errorf("%w: non-positive credit grant", ErrBadEndpoint)
	}
	// Credit grants are not idempotent — a duplicate would double the
	// grant — so they travel on the deduplicated reliable path rather
	// than the op-retry path.
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size = d.node, target, ctrlPacketSize
	pkt.Payload = &creditPacket{SendEP: sendEP, Credits: credits}
	return d.transmit(p, pkt)
}

// ConfigureRemote writes endpoint registers of the DTU at target. Only
// privileged DTUs may issue config packets; this is the kernel's
// mechanism for NoC-level isolation.
func (d *DTU) ConfigureRemote(p *sim.Process, target noc.NodeID, ep int, cfg Endpoint) error {
	return d.sendConfig(p, target, &ConfigReq{EP: ep, Cfg: cfg})
}

// SetPrivilegedRemote up/downgrades the privilege of the DTU at target.
// The kernel downgrades all application PEs during boot.
func (d *DTU) SetPrivilegedRemote(p *sim.Process, target noc.NodeID, privileged bool) error {
	req := &ConfigReq{SetPrivilege: -1}
	if privileged {
		req.SetPrivilege = 1
	}
	return d.sendConfig(p, target, req)
}

func (d *DTU) sendConfig(p *sim.Process, target noc.NodeID, req *ConfigReq) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	req.Src = d.node
	req.Privileged = true
	resp, err := d.doOp(p, func(op uint64) {
		req.OpID = op
		pkt := d.net.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = d.node, target, ctrlPacketSize+48 // register file on the wire
		pkt.Payload = req
		d.net.Send(p, pkt)
	})
	if err != nil {
		return err
	}
	if resp.cfg.Err != "" {
		return fmt.Errorf("%w: %s", ErrRemote, resp.cfg.Err)
	}
	return nil
}

func (d *DTU) newOp() uint64 {
	d.nextOp++
	op := d.nextOp
	d.pending[op] = &pendingOp{done: sim.NewSignal(d.eng)}
	return op
}

// waitOp blocks until the operation's response arrived or, when
// timeout is nonzero, until the timeout expired. A response that
// lands in the same cycle as the expiry wins: the caller checks the
// response fields, not the timer.
func (d *DTU) waitOp(p *sim.Process, op uint64, timeout sim.Time) *pendingOp {
	po := d.pending[op]
	expired := false
	if timeout > 0 {
		d.eng.Schedule(timeout, func() {
			if _, ok := d.pending[op]; ok && po.resp == nil && po.cfg == nil && po.probe == nil {
				expired = true
				po.done.Broadcast()
			}
		})
	}
	for po.resp == nil && po.cfg == nil && po.probe == nil && !expired {
		d.idleWait(p, po.done)
	}
	delete(d.pending, op)
	return po
}

// Deliver implements noc.Handler: it is the DTU's NoC-facing side.
// Message and response packets are handled inline (the hardware writes
// the ringbuffer / completion registers without software involvement);
// RDMA and config requests are queued for the DTU's request server.
//
// The reliability preamble runs first: corrupted packets are poisoned
// (NACKed if they were sequence-numbered, silently discarded
// otherwise — retransmit and timeouts cover the loss), hardware
// acks/nacks complete pending transmits, and sequence-numbered
// transfers are acknowledged and deduplicated before any payload
// takes effect, so a retransmission whose original arrived cannot
// deliver twice.
func (d *DTU) Deliver(pkt *noc.Packet) {
	if pkt.Corrupt {
		d.Stats.Poisoned++
		if tr := d.obs; tr.On() {
			tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvPoisoned, Span: obs.SpanID(pkt.Span),
				Arg0: uint64(pkt.Src), Arg1: pkt.Seq})
		}
		if pkt.Seq != 0 {
			if tr := d.obs; tr.On() {
				d.mNacks.Inc()
			}
			d.sendCtrl(pkt.Src, &nackPacket{Seq: pkt.Seq})
		}
		return
	}
	switch pl := pkt.Payload.(type) {
	case *ackPacket:
		if ps, ok := d.sends[pl.Seq]; ok {
			ps.acked = true
			ps.done.Broadcast()
		}
		return
	case *nackPacket:
		if ps, ok := d.sends[pl.Seq]; ok && !ps.acked {
			ps.nacked = true
			ps.done.Broadcast()
		}
		return
	}
	if pkt.Seq != 0 {
		// Ack every copy — the previous ack may itself have been lost —
		// but deliver only the first.
		d.sendCtrl(pkt.Src, &ackPacket{Seq: pkt.Seq})
		if d.markSeen(pkt.Src, pkt.Seq) {
			d.Stats.DupsDropped++
			return
		}
	}
	switch pl := pkt.Payload.(type) {
	case *msgPacket:
		d.receive(pl.TargetEP, pl.Msg, true)
	case *replyPacket:
		if pl.CreditEP >= 0 && pl.CreditEP < len(d.eps) {
			s := &d.eps[pl.CreditEP]
			if s.Type == EpSend && s.Credits != UnlimitedCredits {
				s.Credits++
				d.CreditAvail.Broadcast()
			}
		}
		d.receive(pl.TargetEP, pl.Msg, false)
	case *creditPacket:
		if pl.SendEP >= 0 && pl.SendEP < len(d.eps) {
			s := &d.eps[pl.SendEP]
			if s.Type == EpSend && s.Credits != UnlimitedCredits {
				s.Credits += pl.Credits
				d.CreditAvail.Broadcast()
			}
		}
	case *MemReadReq, *MemWriteReq, *ConfigReq, *probeReq:
		// The packet outlives Deliver: the request server dequeues and
		// answers it later. Take ownership from the network's pool.
		pkt.Retain = true
		d.reqs.Send(pkt)
	case *MemResp:
		if po, ok := d.pending[pl.OpID]; ok {
			po.resp = pl
			po.done.Broadcast()
		}
	case *ConfigResp:
		if po, ok := d.pending[pl.OpID]; ok {
			po.cfg = pl
			po.done.Broadcast()
		}
	case *probeResp:
		if po, ok := d.pending[pl.OpID]; ok {
			po.probe = pl
			po.done.Broadcast()
		}
	default:
		panic(fmt.Sprintf("dtu: unknown packet payload %T", pkt.Payload))
	}
}

// receive places a message into the ringbuffer of receive endpoint ep,
// writing it into the SPM like the hardware does, or drops it when the
// buffer is full or the endpoint is not receiving. isRequest separates
// request messages from replies: only requests are subject to overload
// admission — a reply's slot was budgeted by the requester's credit,
// and refusing it would strand the caller.
func (d *DTU) receive(ep int, msg *Message, isRequest bool) {
	// The drop paths recycle the message: it was never inserted into a
	// ringbuffer, the reliable layer acked and deduplicated the carrying
	// packet before receive, and no other reference exists — the message
	// is provably dead.
	if ep < 0 || ep >= len(d.eps) || d.eps[ep].Type != EpReceive {
		d.Stats.MsgsDropped++
		d.freeMessage(msg)
		return
	}
	r := &d.eps[ep]
	if d.overload != nil && isRequest && !d.admit(ep, r, msg) {
		return
	}
	if r.occupied >= r.SlotCount || HeaderSize+len(msg.Data) > r.SlotSize {
		d.Stats.MsgsDropped++
		d.freeMessage(msg)
		return
	}
	slot := r.nextSlot
	// Find a free slot; occupied < SlotCount guarantees one exists.
	r.nextSlot = (r.nextSlot + 1) % r.SlotCount
	msg.slot = slot
	if err := d.spm.Write(r.BufAddr+slot*r.SlotSize+HeaderSize, msg.Data); err != nil {
		d.Stats.MsgsDropped++
		d.freeMessage(msg)
		return
	}
	r.occupied++
	r.arrived = append(r.arrived, msg)
	d.Stats.MsgsReceived++
	if tr := d.obs; tr.On() {
		now := d.eng.Now()
		tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
			Kind: obs.EvMsgRecv, Span: obs.SpanID(msg.Span),
			Arg0: uint64(ep), Arg1: uint64(len(msg.Data)), Arg2: msg.Label})
		if now >= msg.sentAt {
			tr.Hist(obs.HMsgLatency).Observe(uint64(now - msg.sentAt))
		}
	}
	d.MsgAvail.Broadcast()
}

// serve is the DTU's internal engine handling incoming RDMA accesses to
// the local SPM, remote configuration writes, and liveness probes.
func (d *DTU) serve(p *sim.Process) {
	p.SetDaemon()
	for {
		pkt := d.reqs.Recv(p)
		switch req := pkt.Payload.(type) {
		case *MemReadReq:
			buf := make([]byte, req.Len)
			resp := &MemResp{OpID: req.OpID}
			if err := d.spm.Read(req.Addr, buf); err != nil {
				resp.Err = err.Error()
			} else {
				resp.Data = buf
			}
			out := d.net.NewPacket()
			out.Src, out.Dst, out.Size = d.node, req.Src, msgWireSize(len(resp.Data))
			out.Payload = resp
			d.net.FreePacket(pkt)
			d.net.Send(p, out)
		case *MemWriteReq:
			resp := &MemResp{OpID: req.OpID}
			if err := d.spm.Write(req.Addr, req.Data); err != nil {
				resp.Err = err.Error()
			}
			out := d.net.NewPacket()
			out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
			out.Payload = resp
			d.net.FreePacket(pkt)
			d.net.Send(p, out)
		case *ConfigReq:
			resp := &ConfigResp{OpID: req.OpID}
			if !req.Privileged {
				resp.Err = ErrNotPrivileged.Error()
			} else if req.SetPrivilege != 0 {
				d.privileged = req.SetPrivilege > 0
			} else if err := d.applyConfig(req.EP, req.Cfg); err != nil {
				resp.Err = err.Error()
			} else {
				if tr := d.obs; tr.On() {
					tr.Emit(obs.Event{At: d.eng.Now(), PE: int32(d.node), Layer: obs.LDTU,
						Kind: obs.EvConfig, Arg0: uint64(req.EP), Arg1: uint64(req.Src)})
				}
			}
			out := d.net.NewPacket()
			out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
			out.Payload = resp
			d.net.FreePacket(pkt)
			d.net.Send(p, out)
		case *probeReq:
			// The DTU answers for its core: it is a separate hardware
			// block and keeps serving the NoC after a core crash.
			crashed := d.coreStatus != nil && d.coreStatus()
			out := d.net.NewPacket()
			out.Src, out.Dst, out.Size = d.node, req.Src, ctrlPacketSize
			out.Payload = &probeResp{OpID: req.OpID, Crashed: crashed}
			d.net.FreePacket(pkt)
			d.net.Send(p, out)
		}
	}
}
