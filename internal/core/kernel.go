package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
)

// Program is the unit of execution the kernel can start on a PE. The
// program table stands in for the executable store: real M3 transfers
// binaries; we transfer the same bytes for timing but dispatch into Go
// functions.
type Program func(c *tile.Ctx)

// ProgTable maps program ids (carried in vpestart system calls) to
// program functions. It is host-side state shared by kernel and libm3.
type ProgTable struct {
	progs map[uint64]Program
	next  uint64
}

// Register stores f and returns its id.
func (t *ProgTable) Register(f Program) uint64 {
	if t.progs == nil {
		t.progs = make(map[uint64]Program)
	}
	t.next++
	t.progs[t.next] = f
	return t.next
}

// Get returns the program with the given id, or nil.
func (t *ProgTable) Get(id uint64) Program { return t.progs[id] }

// Stats counts kernel activity.
type Stats struct {
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	Syscalls map[kif.SyscallOp]uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	ServiceCalls uint64

	// Fault-tolerance counters, nonzero only under fault injection:
	// syscall replies abandoned after the DTU retry budget (the client
	// died or its reply endpoint is unreachable), endpoint
	// invalidations of a dead PE that timed out, and VPEs reaped by
	// the death watchdog.
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	RepliesDropped uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	FailedInvalidations uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	VPEsReaped uint64

	// Recovery counters: kernel→service calls that hit the armed
	// deadline, and supervised services respawned after a reap.
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	ServiceTimeouts uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	ServiceRestarts uint64

	// Overload-control counters, nonzero only with EnableOverload:
	// calls rejected by the shed controller, calls failed fast by an
	// open circuit breaker, calls the service DTU refused at its
	// admission watermark, and supervisor respawns delayed because the
	// service's breaker was still open.
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	CallsShed uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	BreakerRejects uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	CallsRefused uint64
	//m3vet:resolve sharedstate owner kernel counters are bumped only by kernel dispatcher/helper processes
	RestartsHeld uint64
}

// SyscallCount is one (opcode, count) pair of the syscall counter map.
type SyscallCount struct {
	Op    kif.SyscallOp
	Count uint64
}

// SortedSyscalls returns the syscall counters in opcode-name order —
// the one sanctioned way to report the map, so no output path walks it
// in randomized map order.
func (s *Stats) SortedSyscalls() []SyscallCount {
	ops := make([]kif.SyscallOp, 0, len(s.Syscalls))
	for op := range s.Syscalls {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	out := make([]SyscallCount, len(ops))
	for i, op := range ops {
		out[i] = SyscallCount{Op: op, Count: s.Syscalls[op]}
	}
	return out
}

// Metric names the kernel registers (m3vet: metricname).
const (
	// MSyscalls counts handled syscalls: index -1 is the total, index
	// op the per-opcode count.
	MSyscalls = "kernel_syscalls_total"
	// MSyscallRate samples the cumulative syscall count on the
	// sim clock; successive sample deltas are the syscall rate.
	MSyscallRate = "kernel_syscall_rate"
	// MEPReconfigs counts remote endpoint configurations the kernel
	// issued (gate activations, std EP installs, invalidations).
	MEPReconfigs = "kernel_ep_reconfigs_total"
	// MCapRevocations counts dropped capabilities (explicit revokes,
	// VPE teardown, death-watchdog reaps).
	MCapRevocations = "kernel_cap_revocations_total"
	// MSupervisorRestarts counts supervised service respawns.
	MSupervisorRestarts = "kernel_supervisor_restarts_total"
)

// Kernel is the M3 kernel instance, bound to a dedicated kernel PE.
type Kernel struct {
	Plat  *tile.Platform
	PE    *tile.PE
	Progs *ProgTable

	// cpu serializes kernel software: the dispatcher and helper
	// activities share the single kernel core.
	cpu *sim.Resource

	vpes     map[uint64]*VPE
	nextVPE  uint64
	peUsed   []bool
	services map[string]*ServiceObj
	dram     *allocator

	pendingServ map[uint64]*servPending
	nextServOp  uint64
	nextSrvEP   int

	// srvEpochs counts registrations per service name (lookup only,
	// never walked) so every re-registration gets a fresh epoch.
	srvEpochs map[string]uint64

	// supervised maps the VPE id of a supervised service's current
	// incarnation to its restart record (lookup only, never walked).
	supervised map[uint64]*supervised

	// servDeadline bounds kernel→service calls in cycles; zero (the
	// default) keeps them unbounded and schedules no deadline events.
	// Armed by internal/fault (m3vet: faultsite) or EnableOverload.
	servDeadline sim.Time

	// costDelta perturbs the syscall dispatch cost (added to
	// CostDispatch on every handled syscall). It exists for the
	// differential-observability self-test: a seeded kernel-side cost
	// regression that m3diff must attribute to the kernel layer. Zero
	// (the default) charges exactly the cost table and schedules
	// nothing extra, keeping unperturbed runs bit-identical.
	//m3vet:resolve sharedstate owner written once before boot (PerturbSyscallCost), read only by the kernel dispatcher
	costDelta sim.Time

	// overload is the armed overload-control state (shed controllers,
	// circuit breakers); nil means every gate below is a no-op.
	overload *kernelOverload

	inits  []initAction
	booted bool

	// actSig wakes kernel helper activities that wait for a receive
	// gate to be activated or for a VPE to die (deferred send-gate
	// activation, §4.5.4). A kernel-wide signal keeps the wakeup order
	// deterministic and lets VPE teardown unblock every helper that
	// waits on a gate owned by a dead VPE.
	actSig *sim.Signal

	// Cached metric handles (nil-safe, inert without a tracer). The
	// overload pair registers lazily on first increment so runs that
	// never shed keep identical metric snapshots.
	mSyscalls           *obs.Counter
	mEPReconfigs        *obs.Counter
	mCapRevocations     *obs.Counter
	mSupervisorRestarts *obs.Counter
	//m3vet:resolve sharedstate owner registered lazily from kernel helper processes only
	mCallsShed *obs.Counter
	//m3vet:resolve sharedstate owner registered lazily from kernel helper processes only
	mBreakerOpens *obs.Counter

	Stats Stats
}

type servPending struct {
	sig *sim.Signal
	msg *dtu.Message
}

type initAction struct {
	vpe  *VPE
	prog Program
}

// Boot creates the kernel on the given PE, configures its receive
// endpoints, and schedules the boot process that downgrades all
// application PEs (NoC-level isolation) and then serves system calls
// forever. Init VPEs queued with StartInit before the engine runs are
// started by the boot process.
func Boot(plat *tile.Platform, kernelPE int) *Kernel {
	kpe := plat.PEs[kernelPE]
	k := &Kernel{
		Plat:        plat,
		PE:          kpe,
		Progs:       &ProgTable{},
		cpu:         sim.NewResource(plat.Eng, 1),
		vpes:        make(map[uint64]*VPE),
		peUsed:      make([]bool, len(plat.PEs)),
		services:    make(map[string]*ServiceObj),
		dram:        newAllocator(0, plat.DRAM.Size()),
		pendingServ: make(map[uint64]*servPending),
		nextSrvEP:   kif.KFirstSrvEP,
		srvEpochs:   make(map[string]uint64),
		supervised:  make(map[uint64]*supervised),
		actSig:      sim.NewSignal(plat.Eng),
	}
	k.peUsed[kernelPE] = true
	mustConfig(kpe.DTU.Configure(kif.KSyscallEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.KSyscallBufAddr,
		SlotSize: kif.KSyscallSlotSize, SlotCount: kif.KSyscallSlots,
	}))
	mustConfig(kpe.DTU.Configure(kif.KServReplyEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.KServReplyBufAddr,
		SlotSize: kif.KServReplySlotSize, SlotCount: kif.KServReplySlots,
	}))
	k.Stats.Syscalls = make(map[kif.SyscallOp]uint64)
	if tr := plat.Obs; tr.On() {
		m := tr.Metrics()
		k.mSyscalls = m.Counter(MSyscalls, -1)
		k.mEPReconfigs = m.Counter(MEPReconfigs, -1)
		k.mCapRevocations = m.Counter(MCapRevocations, -1)
		k.mSupervisorRestarts = m.Counter(MSupervisorRestarts, -1)
		ctr := k.mSyscalls
		m.Series(MSyscallRate, -1, func() int64 { return int64(ctr.Value()) })
	}
	kpe.Start("kernel", k.run)
	return k
}

// PerturbSyscallCost adds delta cycles to every syscall dispatch — a
// seeded kernel-side regression for the m3diff self-test (`make
// diff-smoke`). Call before the engine runs; a zero delta leaves the
// run bit-identical to an unperturbed one.
func (k *Kernel) PerturbSyscallCost(delta sim.Time) { k.costDelta = delta }

func mustConfig(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: kernel endpoint config failed: %v", err))
	}
}

// configRemote is the kernel's single choke point for remote endpoint
// configuration: every activation, std-EP install, and invalidation
// goes through it so the reconfiguration count is complete.
func (k *Kernel) configRemote(p *sim.Process, node noc.NodeID, ep int, cfg dtu.Endpoint) error {
	if tr := k.Plat.Obs; tr.On() {
		k.mEPReconfigs.Inc()
	}
	return k.PE.DTU.ConfigureRemote(p, node, ep, cfg)
}

// StartInit queues a VPE that the kernel starts during boot, before
// serving system calls: the way services (m3fs) and the first
// application enter the system. It must be called before the engine
// runs. It returns the created VPE.
func (k *Kernel) StartInit(name string, peType tile.CoreType, prog Program) (*VPE, error) {
	if k.booted {
		return nil, errors.New("core: StartInit after boot")
	}
	pe := k.allocPE(peType)
	if pe == nil {
		return nil, errors.New("core: no free PE for init VPE")
	}
	vpe := k.newVPE(name, pe)
	k.inits = append(k.inits, initAction{vpe: vpe, prog: prog})
	return vpe, nil
}

// VPEByID returns a VPE by id (for tests and the harness).
func (k *Kernel) VPEByID(id uint64) *VPE { return k.vpes[id] }

// VPEs returns all VPEs in id order (for the death watchdog and the
// chaos harness; the order is part of the deterministic schedule).
func (k *Kernel) VPEs() []*VPE {
	ids := make([]uint64, 0, len(k.vpes))
	for id := range k.vpes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vpes := make([]*VPE, 0, len(ids))
	for _, id := range ids {
		vpes = append(vpes, k.vpes[id])
	}
	return vpes
}

// VPEOnPE returns the non-exited VPE bound to the given PE, or nil.
func (k *Kernel) VPEOnPE(peID int) *VPE {
	for _, vpe := range k.VPEs() {
		if !vpe.exited && vpe.PE != nil && vpe.PE.ID == peID {
			return vpe
		}
	}
	return nil
}

// CPU exposes the kernel CPU resource for utilisation statistics.
func (k *Kernel) CPU() *sim.Resource { return k.cpu }

func (k *Kernel) newVPE(name string, pe *tile.PE) *VPE {
	k.nextVPE++
	vpe := &VPE{
		ID:      k.nextVPE,
		Name:    name,
		PE:      pe,
		epCaps:  make(map[int]*Capability),
		exitSig: sim.NewSignal(k.Plat.Eng),
		kern:    k,
	}
	vpe.Caps = newCapTable(vpe)
	k.vpes[vpe.ID] = vpe
	return vpe
}

func (k *Kernel) allocPE(peType tile.CoreType) *tile.PE {
	for _, pe := range k.Plat.PEs {
		if !k.peUsed[pe.ID] && !pe.Crashed() && (peType == "" || pe.Type == peType) {
			k.peUsed[pe.ID] = true
			return pe
		}
	}
	return nil
}

// compute models kernel software work: it occupies the (single) kernel
// CPU for n cycles.
func (k *Kernel) compute(p *sim.Process, n sim.Time) {
	k.cpu.Acquire(p, 1)
	p.Sleep(n)
	k.cpu.Release(1)
}

// run is the kernel program: boot, then dispatch system calls forever.
func (k *Kernel) run(c *tile.Ctx) {
	p := c.P
	for _, pe := range k.Plat.PEs {
		if pe.ID == k.PE.ID {
			continue
		}
		if err := k.PE.DTU.SetPrivilegedRemote(p, pe.Node, false); err != nil {
			panic(fmt.Sprintf("core: downgrade of PE %d failed: %v", pe.ID, err))
		}
	}
	for _, init := range k.inits {
		k.installStdEPs(p, init.vpe)
		prog := init.prog
		init.vpe.started = true
		init.vpe.PE.Start(init.vpe.Name, prog)
	}
	k.booted = true
	k.dispatch(p)
}

// installStdEPs configures the standard endpoints of a VPE's PE: the
// syscall send gate, the syscall-reply receive gate, and the
// call-reply receive gate.
func (k *Kernel) installStdEPs(p *sim.Process, vpe *VPE) {
	node := vpe.PE.Node
	mustConfig(k.configRemote(p, node, kif.SyscallEP, dtu.Endpoint{
		Type: dtu.EpSend, Target: k.PE.Node, TargetEP: kif.KSyscallEP,
		Label: vpe.ID, Credits: 1, MsgSize: kif.MaxMsgSize,
	}))
	mustConfig(k.configRemote(p, node, kif.SysReplyEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.SysReplyBufAddr,
		SlotSize: kif.SysReplySlotSize, SlotCount: kif.SysReplySlots,
	}))
	mustConfig(k.configRemote(p, node, kif.CallReplyEP, dtu.Endpoint{
		Type: dtu.EpReceive, BufAddr: kif.CallReplyBufAddr,
		SlotSize: kif.CallReplySlotSize, SlotCount: kif.CallReplySlots,
	}))
}

// dispatch is the kernel main loop. It is a daemon for deadlock
// accounting: a run where only the kernel still waits for messages has
// terminated normally.
func (k *Kernel) dispatch(p *sim.Process) {
	p.SetDaemon()
	d := k.PE.DTU
	for {
		msg, ep := d.WaitMsg(p, kif.KSyscallEP, kif.KServReplyEP)
		if ep == kif.KServReplyEP {
			// Service-protocol reply: route to the waiting helper.
			k.compute(p, CostServReply)
			if pend, ok := k.pendingServ[msg.Label]; ok {
				pend.msg = msg
				pend.sig.Broadcast()
			} else {
				d.Ack(ep, msg)
			}
			continue
		}
		k.handleSyscall(p, msg)
	}
}

func (k *Kernel) handleSyscall(p *sim.Process, msg *dtu.Message) {
	vpe := k.vpes[msg.Label]
	is := kif.NewIStream(msg.Data)
	op := is.Op()
	k.compute(p, CostDispatch)
	if is.Err() != nil {
		// Too short to even carry an opcode.
		k.replyErr(p, msg, kif.ErrInvalidArgs)
		return
	}
	k.Stats.Syscalls[op]++
	if tr := k.Plat.Obs; tr.On() {
		k.mSyscalls.Inc()
		tr.Metrics().Counter(MSyscalls, int(op)).Inc()
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvKSyscallStart, Span: obs.SpanID(msg.Span),
			Arg0: uint64(op), Arg1: msg.Label})
	}
	if k.costDelta != 0 {
		// Seeded dispatch-cost regression (PerturbSyscallCost), charged
		// inside the [KSyscallStart, KSyscallEnd] window so the critical
		// path books it as kernel time.
		k.compute(p, k.costDelta)
	}
	if vpe == nil || vpe.exited {
		k.replyErr(p, msg, kif.ErrVPEGone)
		return
	}
	switch op {
	case kif.SysNoop:
		k.compute(p, CostNoop)
		k.replyErr(p, msg, kif.OK)
	case kif.SysCreateVPE:
		k.sysCreateVPE(p, vpe, is, msg)
	case kif.SysVPEStart:
		k.sysVPEStart(p, vpe, is, msg)
	case kif.SysVPEWait:
		k.sysVPEWait(p, vpe, is, msg)
	case kif.SysExit:
		k.sysExit(p, vpe, is, msg)
	case kif.SysReqMem:
		k.sysReqMem(p, vpe, is, msg)
	case kif.SysDeriveMem:
		k.sysDeriveMem(p, vpe, is, msg)
	case kif.SysCreateRGate:
		k.sysCreateRGate(p, vpe, is, msg)
	case kif.SysCreateSGate:
		k.sysCreateSGate(p, vpe, is, msg)
	case kif.SysActivate:
		k.sysActivate(p, vpe, is, msg)
	case kif.SysCreateSrv:
		k.sysCreateSrv(p, vpe, is, msg)
	case kif.SysOpenSess:
		k.sysOpenSess(p, vpe, is, msg)
	case kif.SysExchangeSess:
		k.sysExchangeSess(p, vpe, is, msg)
	case kif.SysDelegate, kif.SysObtain:
		k.sysExchangeVPE(p, vpe, is, msg, op == kif.SysObtain)
	case kif.SysRevoke:
		k.sysRevoke(p, vpe, is, msg)
	default:
		k.replyErr(p, msg, kif.ErrInvalidArgs)
	}
}

// reply marshals and sends a syscall reply.
func (k *Kernel) reply(p *sim.Process, msg *dtu.Message, o *kif.OStream) {
	k.compute(p, CostReply)
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: obs.EvKSyscallEnd, Span: obs.SpanID(msg.Span), Arg1: msg.Label})
	}
	if !msg.CanReply() {
		k.PE.DTU.Ack(kif.KSyscallEP, msg)
		return
	}
	if err := k.PE.DTU.Reply(p, kif.KSyscallEP, msg, o.Bytes()); err != nil {
		if errors.Is(err, dtu.ErrTimeout) {
			// The client (or its reply path) is gone; under fault
			// injection the DTU gives up after its retry budget. The
			// kernel must stay up — drop the reply and move on.
			k.Stats.RepliesDropped++
			if tr := k.Plat.Obs; tr.On() {
				tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
					Kind: obs.EvReplyDrop, Span: obs.SpanID(msg.Span), Arg0: msg.Label})
			}
			return
		}
		panic(fmt.Sprintf("core: syscall reply failed: %v", err))
	}
}

// emitKernel records one span-less kernel bookkeeping event (cap
// revocation, reap, probe miss, supervisor decision) on the kernel PE.
func (k *Kernel) emitKernel(kind obs.Kind, a0, a1, a2 uint64) {
	if tr := k.Plat.Obs; tr.On() {
		tr.Emit(obs.Event{At: k.Plat.Eng.Now(), PE: int32(k.PE.Node), Layer: obs.LKernel,
			Kind: kind, Arg0: a0, Arg1: a1, Arg2: a2})
	}
}

func (k *Kernel) replyErr(p *sim.Process, msg *dtu.Message, e kif.Error) {
	var o kif.OStream
	o.Err(e)
	k.reply(p, msg, &o)
}
