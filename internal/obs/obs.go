// Package obs is the simulator's one instrumentation stream: typed,
// cycle-stamped events with causal span identifiers, deterministic
// fixed-bucket latency histograms, and a bounded per-PE flight
// recorder. The DTU, NoC and kernel emit here, so a single request's
// full path — app PE → NoC hops → kernel/service → reply —
// reconstructs as nested spans (see docs/OBSERVABILITY.md), and the
// kernel's span-less bookkeeping (capability revocation order, reaps,
// supervisor decisions) lands in the same stream.
//
// Determinism contract: events carry only simulated time and values
// derived from the simulation, so identical (configuration, seed)
// runs produce byte-identical event streams; the hash of that stream
// is the run's determinism witness. With no Tracer installed (or a
// disabled one), instrumented components must not schedule a single
// extra engine event; call sites therefore guard every Emit and
// histogram update with On(), enforced by m3vet's obsguard rule.
package obs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
)

// SpanID is a causal trace identifier. It is allocated at the root of
// a request (a syscall, a service call) and threaded through DTU
// message headers and NoC packets, so every event the request causes
// carries the same id. Zero means "no span".
type SpanID uint64

// Layer names the architectural layer an event originates from.
type Layer uint8

// Layers, ordered from software down to the wire.
const (
	LApp Layer = iota
	LKernel
	LService
	LDTU
	LNoC
	numLayers
)

var layerNames = [numLayers]string{"app", "kernel", "service", "dtu", "noc"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer%d", uint8(l))
}

// Kind is the typed event kind. Kinds come in start/end pairs where
// the pair brackets a span interval; the rest are instants.
type Kind uint8

// Event kinds. The Arg fields are kind-specific (documented per kind).
const (
	EvNone Kind = iota

	// EvSyscallStart/End bracket one syscall round-trip as seen by the
	// application (libm3 marshal to reply unmarshal).
	// Arg0 = syscall opcode. On End, Arg1 = 1 if the send failed.
	EvSyscallStart
	EvSyscallEnd

	// EvKSyscallStart/End bracket the kernel-side handling of one
	// syscall. Arg0 = opcode (Start) / 0 (End), Arg1 = calling VPE id.
	EvKSyscallStart
	EvKSyscallEnd

	// EvSvcCallStart/End bracket one kernel→service control call.
	// Arg0 = the kernel's service send endpoint, Arg1 = op id.
	EvSvcCallStart
	EvSvcCallEnd

	// EvSvcReq marks a service handling one incoming request.
	// Arg0 = service protocol opcode, Arg1 = session ident (0 = ctrl).
	EvSvcReq

	// EvMsgSend marks a DTU message leaving a send endpoint.
	// Arg0 = local endpoint, Arg1 = destination node, Arg2 = bytes.
	EvMsgSend
	// EvReplySend marks a DTU reply leaving (the matching EvMsgRecv at
	// the original sender closes the flight interval).
	// Arg0 = receive endpoint replied on, Arg1 = destination node,
	// Arg2 = bytes.
	EvReplySend
	// EvMsgRecv marks a message landing in a receive ringbuffer.
	// Arg0 = endpoint, Arg1 = bytes, Arg2 = label.
	EvMsgRecv

	// EvXferStart/End bracket one RDMA operation issued by this DTU.
	// Arg0 = 1 for read, 2 for write; Arg1 = bytes.
	EvXferStart
	EvXferEnd

	// EvPktInject/Deliver bracket the NoC flight of one span-carrying
	// packet. Arg0 = peer node, Arg1 = wire bytes.
	EvPktInject
	EvPktDeliver
	// EvPktDrop/EvPktCorrupt are fault verdicts at one hop.
	// Arg0 = destination node, Arg1 = reliability seq,
	// Arg2 = from<<32|to link.
	EvPktDrop
	EvPktCorrupt

	// EvPoisoned marks a corrupted packet discarded at the receiving
	// DTU. Arg0 = source node, Arg1 = seq.
	EvPoisoned
	// EvRetransmit marks one reliability-layer retransmission.
	// Arg0 = seq, Arg1 = destination node, Arg2 = attempt.
	EvRetransmit
	// EvXmitAbort marks a transfer abandoned after the retry budget.
	// Arg0 = seq, Arg1 = destination node, Arg2 = attempts.
	EvXmitAbort
	// EvOpTimeout marks one remote-operation timeout.
	// Arg0 = op id, Arg1 = attempt.
	EvOpTimeout

	// EvConfig marks a remote endpoint configuration taking effect.
	// Arg0 = endpoint, Arg1 = configuring node.
	EvConfig
	// EvReplyDrop marks a kernel syscall reply abandoned after the DTU
	// retry budget. Arg0 = target VPE id.
	EvReplyDrop
	// EvCrash marks a PE core crash (fault injection).
	EvCrash

	// Overload-control kinds (docs/OVERLOAD.md), emitted only when the
	// subsystem is armed.

	// EvDeadlineDrop marks a request dropped at the receiving DTU
	// because its propagated deadline had already expired in flight.
	// Arg0 = endpoint, Arg1 = sender node, Arg2 = cycles overdue.
	EvDeadlineDrop
	// EvAdmitRefuse marks a request refused by the receiving DTU's
	// admission watermark instead of being queued.
	// Arg0 = endpoint, Arg1 = sender node, Arg2 = occupied slots.
	EvAdmitRefuse
	// EvShed marks a service call rejected by the kernel's shed
	// controller before any work was done.
	// Arg0 = service PE, Arg1 = queue depth, Arg2 = priority class.
	EvShed
	// EvBreaker marks a circuit-breaker trip for a service.
	// Arg0 = service PE, Arg1 = total opens.
	EvBreaker

	// EvCreditStall/EvCreditOK bracket one credit-exhaustion wait at a
	// send site: the sender found the endpoint out of credits and
	// blocked until a reply returned one (or the deadline expired).
	// Arg0 = endpoint. On EvCreditOK, Arg2 = 1 if the wait ended by
	// deadline instead of a credit.
	EvCreditStall
	EvCreditOK

	// Kernel bookkeeping kinds. They carry no span (Span 0), so the
	// profiler and the critical-path engine ignore them; they exist so
	// the event stream witnesses the kernel's teardown and recovery
	// order.

	// EvCapRevoke marks one capability removed by a revocation or a
	// VPE teardown, in revocation order. Arg0 = capability type,
	// Arg1 = selector, Arg2 = owning VPE id.
	EvCapRevoke
	// EvVPEReap marks the kernel tearing down a VPE whose core died.
	// Arg0 = VPE id, Arg1 = the dead PE's node.
	EvVPEReap
	// EvProbeMiss marks a death-watch probe that got no answer.
	// Arg0 = VPE id, Arg1 = consecutive misses, Arg2 = miss limit.
	EvProbeMiss
	// EvInvalidateFail marks an endpoint invalidation that timed out
	// (the target DTU is gone with its PE). Arg0 = endpoint,
	// Arg1 = target node.
	EvInvalidateFail
	// EvSupervisor marks one supervisor decision about a crashed,
	// supervised service. Arg0 = action (SupExhausted, SupHold,
	// SupNoPE, SupRestart), Arg1 = restarts so far; Arg2 = hold cycles
	// (SupHold) or the new incarnation's VPE id (SupRestart).
	EvSupervisor

	numKinds
)

// Supervisor actions, carried in Arg0 of EvSupervisor.
const (
	// SupExhausted: the restart budget is used up; no respawn.
	SupExhausted uint64 = iota + 1
	// SupHold: the respawn is delayed while the breaker is open.
	SupHold
	// SupNoPE: the respawn found no spare PE.
	SupNoPE
	// SupRestart: the service was restarted.
	SupRestart
)

var kindNames = [numKinds]string{
	"none",
	"syscall", "syscall-end",
	"ksyscall", "ksyscall-end",
	"svccall", "svccall-end",
	"svcreq",
	"msg-send", "reply-send", "msg-recv",
	"xfer", "xfer-end",
	"pkt-inject", "pkt-deliver", "pkt-drop", "pkt-corrupt",
	"poisoned", "retransmit", "xmit-abort", "op-timeout",
	"config", "reply-drop", "crash",
	"deadline-drop", "admit-refuse", "shed", "breaker",
	"credit-stall", "credit-ok",
	"cap-revoke", "vpe-reap", "probe-miss", "invalidate-fail", "supervisor",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one structured trace record. PE is the NoC node the event
// originates from (-1 if none). The Arg fields are kind-specific.
//
// Events are 46-byte by-value flyweights: they travel through Emit,
// the flight rings, and sinks as copies, never as pointers, so the
// steady-state emission path allocates nothing (TestEmitZeroAlloc)
// and no event can be mutated retroactively.
type Event struct {
	At    sim.Time
	PE    int32
	Layer Layer
	Kind  Kind
	Span  SpanID
	Arg0  uint64
	Arg1  uint64
	Arg2  uint64
}

// EncodedSize is the fixed length of an encoded event.
const EncodedSize = 8 + 4 + 1 + 1 + 8 + 8 + 8 + 8

// AppendBinary appends the event's fixed little-endian encoding: the
// canonical byte stream the determinism witness hashes.
func (ev Event) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.At))
	b = binary.LittleEndian.AppendUint32(b, uint32(ev.PE))
	b = append(b, byte(ev.Layer), byte(ev.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Span))
	b = binary.LittleEndian.AppendUint64(b, ev.Arg0)
	b = binary.LittleEndian.AppendUint64(b, ev.Arg1)
	return binary.LittleEndian.AppendUint64(b, ev.Arg2)
}

// String renders the event as one human-readable line.
func (ev Event) String() string {
	return fmt.Sprintf("[%10d] pe%-2d %-7s %-11s span=%-4d %d %d %d",
		ev.At, ev.PE, ev.Layer, ev.Kind, ev.Span, ev.Arg0, ev.Arg1, ev.Arg2)
}

// Options parameterizes a Tracer.
type Options struct {
	// Sink, if set, receives every emitted event in emission order.
	Sink func(Event)
	// FlightRecorder, if positive, keeps a ring of the last N events
	// per PE for the failure dump. Zero disables the recorder.
	FlightRecorder int
}

// DefaultFlightRecorder is the per-PE ring capacity harnesses use.
const DefaultFlightRecorder = 64

// Tracer collects structured events and histograms for one run. It is
// engine-local state: like everything else in the simulation it must
// only be touched from simulation context (no locking).
//
// A nil *Tracer is valid everywhere and permanently off, so components
// hold a plain field and call On() without nil checks.
type Tracer struct {
	enabled bool
	//m3vet:resolve sharedstate owner span ids are allocated by the emitting simulation context only
	nextSpan SpanID
	sink     func(Event)

	flightCap int
	//m3vet:resolve sharedstate owner per-PE rings are created lazily and written by the emitting context only
	rings []*flightRing // index = PE node id

	//m3vet:resolve sharedstate owner hardware histograms are observed by the emitting context only
	hists   [NumHists]Histogram
	metrics *Registry
	slos    *SLOSet
}

// New creates an enabled tracer.
func New(opt Options) *Tracer {
	t := &Tracer{enabled: true, sink: opt.Sink, flightCap: opt.FlightRecorder,
		metrics: NewRegistry(), slos: NewSLOSet()}
	for i := range t.hists {
		t.hists[i].Name = HistID(i).String()
	}
	return t
}

// On reports whether events should be produced. Every instrumentation
// site guards event construction and histogram updates with it (m3vet:
// obsguard), so a disabled tracer costs one branch and nothing else.
func (t *Tracer) On() bool { return t != nil && t.enabled }

// SetEnabled toggles collection, e.g. to scope a trace to the measured
// phase of a benchmark.
func (t *Tracer) SetEnabled(v bool) { t.enabled = v }

// NewSpan allocates a fresh causal span id.
func (t *Tracer) NewSpan() SpanID {
	t.nextSpan++
	return t.nextSpan
}

// Emit records one event: into the per-PE flight ring (if armed) and
// the sink (if installed).
func (t *Tracer) Emit(ev Event) {
	if t == nil || !t.enabled {
		return
	}
	if t.flightCap > 0 && ev.PE >= 0 {
		t.ring(int(ev.PE)).push(ev)
	}
	if t.sink != nil {
		t.sink(ev)
	}
}

// Hist returns the named histogram.
func (t *Tracer) Hist(id HistID) *Histogram { return &t.hists[id] }

// Metrics returns the tracer's metrics registry (nil for a nil tracer;
// the nil registry is valid and inert, like the tracer itself).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// SLOs returns the tracer's service-level-objective set (nil for a nil
// tracer; the nil set is valid and inert, like the nil registry).
func (t *Tracer) SLOs() *SLOSet {
	if t == nil {
		return nil
	}
	return t.slos
}

// Histograms returns all histograms in fixed id order.
func (t *Tracer) Histograms() []*Histogram {
	hs := make([]*Histogram, NumHists)
	for i := range t.hists {
		hs[i] = &t.hists[i]
	}
	return hs
}
