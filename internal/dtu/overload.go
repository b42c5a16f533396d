package dtu

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// OverloadConfig switches a DTU into overload-controlled operation
// (docs/OVERLOAD.md): request messages carry propagated deadlines that
// are checked against the sim clock at the receiving DTU *before* the
// message enters a ringbuffer, and receive endpoints refuse — rather
// than queue — requests past a depth watermark. Both rejection paths
// answer with an immediate fast-fail reply carrying an overload flag,
// so the sender learns in one round trip instead of burning its full
// deadline.
//
// Without it — the default — the DTU behaves exactly as before: not a
// single extra event is scheduled and no metric is registered, so
// overload-off runs stay bit-identical to the pre-overload simulator
// (enforced by the equivalence harness). Unlike the fault hooks, the
// overload knobs are harness-level policy, armed by bench options or
// kernel configuration rather than through internal/fault.
type OverloadConfig struct {
	// RxWatermark, when > 0, is the occupied-slot count at or above
	// which a receive endpoint refuses further *request* messages
	// (replies always land: the slot for them was budgeted by the
	// sender's credit). This turns the paper's credit budget from a
	// correctness bound into an admission decision.
	RxWatermark int
	// CallDeadline, when nonzero, is the cycle budget software on this
	// PE should apply to service calls; libm3 reads it via
	// DTU.CallDeadline, and the DTU stamps it into request headers so
	// every downstream hop can drop expired work early.
	CallDeadline sim.Time
}

// EnableOverload arms the overload configuration. Passing nil disarms.
func (d *DTU) EnableOverload(cfg *OverloadConfig) { d.overload = cfg }

// Overloaded reports whether overload control is armed on this DTU.
func (d *DTU) Overloaded() bool { return d.overload != nil }

// Message overload flags, carried from the refusing DTU back to the
// caller in the fast-fail reply header.
const (
	// msgFlagOverload marks a fast-fail reply for a request refused by
	// the admission watermark (the caller sees kif.ErrOverload).
	msgFlagOverload uint8 = 1 << iota
	// msgFlagExpired marks a fast-fail reply for a request whose
	// propagated deadline expired in flight (the caller sees a
	// timeout — it counts as a deadline miss for breaker purposes).
	msgFlagExpired
)

// Overloaded reports whether this message is a fast-fail reply from an
// admission refusal.
func (m *Message) Overloaded() bool { return m.flags&msgFlagOverload != 0 }

// Expired reports whether this message is a fast-fail reply for a
// request dropped because its deadline expired in flight.
func (m *Message) Expired() bool { return m.flags&msgFlagExpired != 0 }

// StampDeadline arms the deadline register: the next message this DTU
// builds carries the budget in its header, to be decremented by the
// sim clock at each hop (the header stores the remaining budget
// relative to sentAt; receivers compare now-sentAt against it).
// Software arms it at the root of a bounded call, exactly like the
// span register.
func (d *DTU) StampDeadline(deadline sim.Time) {
	if d.overload != nil {
		d.curDeadline = deadline
	}
}

// takeDeadline consumes the deadline register.
func (d *DTU) takeDeadline() sim.Time {
	t := d.curDeadline
	d.curDeadline = 0
	return t
}

// Metric names of the overload subsystem. The counters are registered
// lazily on their first increment — an armed-but-idle or disarmed run
// keeps its metrics snapshot bit-identical to seed.
const (
	// MDeadlineDrops counts requests dropped at this DTU because their
	// propagated deadline expired in flight.
	MDeadlineDrops = "dtu_deadline_drops_total"
	// MAdmitRefusals counts requests refused by this DTU's admission
	// watermark.
	MAdmitRefusals = "dtu_admit_refusals_total"
)

func (d *DTU) deadlineDropCounter() *obs.Counter {
	if d.mDeadlineDrops == nil && d.obs.On() {
		d.mDeadlineDrops = d.obs.Metrics().Counter(MDeadlineDrops, int(d.node))
	}
	return d.mDeadlineDrops
}

func (d *DTU) admitRefusalCounter() *obs.Counter {
	if d.mAdmitRefusals == nil && d.obs.On() {
		d.mAdmitRefusals = d.obs.Metrics().Counter(MAdmitRefusals, int(d.node))
	}
	return d.mAdmitRefusals
}

// admit is the overload preamble of receive(), run only for request
// messages on an overload-armed DTU, before the message touches a
// ringbuffer. It returns false after refusing (and recycling) the
// message. Expiry is checked first: an expired request is dead whatever
// the queue looks like, and counting it as a deadline drop (not an
// admission refusal) keeps the two signals separable in the metrics.
func (d *DTU) admit(ep int, r *epState, msg *Message) bool {
	now := d.eng.Now()
	if msg.Deadline > 0 && now >= msg.sentAt && now-msg.sentAt >= msg.Deadline {
		d.Stats.DeadlineDrops++
		if tr := d.obs; tr.On() {
			d.deadlineDropCounter().Inc()
			tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvDeadlineDrop, Span: obs.SpanID(msg.Span),
				Arg0: uint64(ep), Arg1: uint64(msg.replyNode),
				Arg2: uint64(now - msg.sentAt - msg.Deadline)})
		}
		d.fastFail(msg, msgFlagExpired)
		return false
	}
	if d.overload.RxWatermark > 0 && r.occupied >= d.overload.RxWatermark {
		d.Stats.OverloadRefused++
		if tr := d.obs; tr.On() {
			d.admitRefusalCounter().Inc()
			tr.Emit(obs.Event{At: now, PE: int32(d.node), Layer: obs.LDTU,
				Kind: obs.EvAdmitRefuse, Span: obs.SpanID(msg.Span),
				Arg0: uint64(ep), Arg1: uint64(msg.replyNode), Arg2: uint64(r.occupied)})
		}
		d.fastFail(msg, msgFlagOverload)
		return false
	}
	return true
}

// fastFail answers a refused request with an immediate flagged reply —
// the overload NACK — restoring the sender's credit so its send gate
// does not leak, then recycles the request (it never entered a
// ringbuffer; the reliable layer acked and deduplicated its packet
// before receive, so no other reference exists). The reply is a
// fire-and-forget control-size packet from engine context, like
// ack/nack: if it is lost under fault injection, the sender's own
// deadline covers the silence.
func (d *DTU) fastFail(msg *Message, flag uint8) {
	if msg.replyEP < 0 {
		// No reply channel: the refusal can only be silent. The sender's
		// deadline (it armed one — the message carried it) bounds its wait.
		d.freeMessage(msg)
		return
	}
	reply := d.newMessage()
	reply.Label = msg.replyLabel
	reply.flags = flag
	reply.replyNode = d.node
	reply.replyEP = -1
	reply.Span = msg.Span
	reply.sentAt = d.eng.Now()
	pkt := d.net.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Span = d.node, msg.replyNode, ctrlPacketSize, reply.Span
	pkt.Payload = &replyPacket{TargetEP: msg.replyEP, CreditEP: msg.creditEP, Msg: reply}
	d.freeMessage(msg)
	d.net.SendAsync(pkt)
}
