package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/tile"
)

// Isolated probes: each calls one public function of one layer in a
// loop on a minimal platform, reports host ns/op and allocs/op, and
// asserts the simulated cost of what it timed. A probe whose loop
// stops exercising its layer then fails instead of reporting a fast,
// meaningless number.

const (
	probeReps = 5 // repetitions per probe; ns/op is their median
	// probeQueueDepth is the event-queue depth the schedule probe holds:
	// about one pending wake-up per process of the scale workload
	// (16 clients, kernel, m3fs, their DTU servers, and memory ports).
	probeQueueDepth = 128
	probeMsgSize    = 64
	probe4K         = 4 << 10
)

// probeResult is one probe's measurement.
type probeResult struct {
	Name   string  `json:"name"`
	NsOp   float64 `json:"ns_op"`
	Allocs float64 `json:"allocs_op"`
	Cycles uint64  `json:"cycles_op"` // simulated cycles per op, as asserted
	Err    string  `json:"err,omitempty"`
}

// probe is one loop: it runs n ops, metering only the loop itself (not
// the platform it builds), and returns the simulated cycles one op
// took, or an error when the simulated cost is not the expected one.
type probe struct {
	name string
	n    int
	run  func(n int, m *meter) (uint64, error)
}

// meter measures host time and heap allocations between start and
// stop.
type meter struct {
	t      time.Time
	ns     int64
	allocs uint64
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocs = ms.Mallocs
	m.t = time.Now()
}

func (m *meter) stop() {
	m.ns = int64(time.Since(m.t))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocs = ms.Mallocs - m.allocs
}

var probes = []probe{
	{"sim.schedule", 100000, probeSchedule},
	{"sim.switch", 40000, probeSwitch},
	{"noc.send", 40000, probeNoCSend},
	{"dtu.msg_rtt", 10000, probeMsgRTT},
	{"dtu.rdma4k", 10000, probeRDMA},
	{"mem.dram4k", 40000, probeDRAM},
	{"core.null_syscall", 4000, probeNullSyscall},
}

func runProbes() []probeResult {
	var out []probeResult
	for _, p := range probes {
		r := probeResult{Name: p.name}
		var ns []float64
		for rep := 0; rep < probeReps; rep++ {
			runtime.GC()
			var m meter
			cyc, err := p.run(p.n, &m)
			if err != nil {
				r.Err = fmt.Sprintf("%s: %v", p.name, err)
				break
			}
			ns = append(ns, float64(m.ns)/float64(p.n))
			r.Allocs = float64(m.allocs) / float64(p.n)
			r.Cycles = cyc
		}
		if len(ns) > 0 {
			sort.Float64s(ns)
			r.NsOp = ns[len(ns)/2]
		}
		out = append(out, r)
	}
	return out
}

// probeSchedule: Engine.Schedule plus the Run loop's pop, with the
// queue held at probeQueueDepth pending events. Every event re-arms
// itself probeQueueDepth cycles later, so event k runs at cycle k+1.
func probeSchedule(n int, m *meter) (uint64, error) {
	eng := sim.NewEngine()
	left := n
	var fn func()
	fn = func() {
		if left > 0 {
			left--
			eng.Schedule(probeQueueDepth, fn)
		}
	}
	for i := 0; i < probeQueueDepth; i++ {
		eng.Schedule(sim.Time(i+1), fn)
	}
	m.start()
	end := eng.Run()
	m.stop()
	total := uint64(n + probeQueueDepth)
	if eng.ExecutedEvents() != total || uint64(end) != total {
		return 0, fmt.Errorf("ran %d events to cycle %d, want %d to cycle %d", eng.ExecutedEvents(), end, total, total)
	}
	return 1, nil
}

// probeSwitch: Process.Sleep, one engine->process->engine hand-off per
// call.
func probeSwitch(n int, m *meter) (uint64, error) {
	eng := sim.NewEngine()
	eng.Spawn("sleeper", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	m.start()
	end := eng.Run()
	m.stop()
	if uint64(end) != uint64(n) || eng.ExecutedEvents() != uint64(n+1) || eng.Deadlocked() {
		return 0, fmt.Errorf("slept to cycle %d in %d events, want %d in %d", end, eng.ExecutedEvents(), n, n+1)
	}
	return 1, nil
}

// probeNoCSend: Network.Send of a message-sized packet over one hop;
// each send must take exactly the uncontended transfer time.
func probeNoCSend(n int, m *meter) (uint64, error) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Config{Width: 2, Height: 1})
	delivered := 0
	net.Attach(1, noc.HandlerFunc(func(*noc.Packet) { delivered++ }))
	eng.Spawn("sender", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			pkt := net.NewPacket()
			pkt.Src, pkt.Dst, pkt.Size = 0, 1, dtu.HeaderSize+probeMsgSize
			net.Send(p, pkt)
		}
	})
	m.start()
	end := eng.Run()
	m.stop()
	per := net.TransferTime(0, 1, dtu.HeaderSize+probeMsgSize)
	if delivered != n || end != sim.Time(n)*per {
		return 0, fmt.Errorf("%d of %d packets delivered by cycle %d, want cycle %d", delivered, n, end, sim.Time(n)*per)
	}
	return uint64(per), nil
}

// probeMsgRTT: DTU Send -> WaitMsg -> Reply -> WaitMsg between two
// PEs; every round trip costs the two uncontended message transfers.
func probeMsgRTT(n int, m *meter) (uint64, error) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Config{Width: 2, Height: 1})
	d0 := dtu.New(eng, net, 0, newSPM(), dtu.DefaultNumEndpoints)
	d1 := dtu.New(eng, net, 1, newSPM(), dtu.DefaultNumEndpoints)
	slot := probeMsgSize + dtu.HeaderSize
	err := errors.Join(
		d1.Configure(0, dtu.Endpoint{Type: dtu.EpReceive, SlotSize: slot, SlotCount: 4}),
		d0.Configure(1, dtu.Endpoint{Type: dtu.EpSend, Target: 1, TargetEP: 0, Label: 1, Credits: 4, MsgSize: probeMsgSize}),
		d0.Configure(2, dtu.Endpoint{Type: dtu.EpReceive, BufAddr: 8192, SlotSize: slot, SlotCount: 4}),
	)
	if err != nil {
		return 0, err
	}
	req, rep := make([]byte, probeMsgSize), make([]byte, probeMsgSize)
	var loopErr error
	server := eng.Spawn("server", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			msg, _ := d1.WaitMsg(p, 0)
			if err := d1.Reply(p, 0, msg, rep); err != nil {
				loopErr = err
				return
			}
		}
	})
	server.SetDaemon()
	eng.Spawn("client", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			if err := d0.Send(p, 1, req, 2, 0); err != nil {
				loopErr = err
				return
			}
			msg, _ := d0.WaitMsg(p, 2)
			d0.Ack(2, msg)
		}
	})
	m.start()
	end := eng.Run()
	m.stop()
	per := net.TransferTime(0, 1, dtu.HeaderSize+probeMsgSize) + net.TransferTime(1, 0, dtu.HeaderSize+probeMsgSize)
	if loopErr != nil {
		return 0, loopErr
	}
	if end != sim.Time(n)*per || d0.Stats.MsgsSent != uint64(n) || d1.Stats.Replies != uint64(n) {
		return 0, fmt.Errorf("%d sends, %d replies by cycle %d, want %d each by cycle %d",
			d0.Stats.MsgsSent, d1.Stats.Replies, end, n, sim.Time(n)*per)
	}
	return uint64(per), nil
}

// probeRDMA: DTU WriteMem then ReadMem of 4 KiB against the memory
// tile; the data must round-trip and every transfer must cost the same
// cycles.
func probeRDMA(n int, m *meter) (uint64, error) {
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(1))
	d := plat.PEs[0].DTU
	if err := d.Configure(1, dtu.Endpoint{Type: dtu.EpMemory, MemTarget: plat.DRAMNode,
		MemSize: 1 << 20, MemPerms: dtu.PermRW}); err != nil {
		return 0, err
	}
	out, in := genBytes(4, probe4K), make([]byte, probe4K)
	var loopErr error
	var wr, rd sim.Time
	eng.Spawn("rdma", func(p *sim.Process) {
		for i := 0; i < n; i += 2 {
			off := (i % 128) * probe4K
			t := p.Now()
			if err := d.WriteMem(p, 1, off, out); err != nil {
				loopErr = err
				return
			}
			t1 := p.Now()
			if err := d.ReadMem(p, 1, off, in); err != nil {
				loopErr = err
				return
			}
			w, r := t1-t, p.Now()-t1
			if i == 0 {
				wr, rd = w, r
			}
			if w != wr || r != rd || !bytes.Equal(in, out) {
				loopErr = fmt.Errorf("op %d: write %d read %d cycles (first: %d/%d), data equal %v", i, w, r, wr, rd, bytes.Equal(in, out))
				return
			}
		}
	})
	m.start()
	eng.Run()
	m.stop()
	if loopErr != nil {
		return 0, loopErr
	}
	// A read is at least the DRAM latency plus streaming 4 KiB back.
	floor := plat.DRAM.Latency() + plat.Net.TransferTime(plat.DRAMNode, 0, dtu.HeaderSize+probe4K)
	if rd < floor || d.Stats.BytesRead != uint64(n/2*probe4K) || d.Stats.BytesWritten != uint64(n/2*probe4K) {
		return 0, fmt.Errorf("read took %d cycles (floor %d); moved %d/%d bytes", rd, floor, d.Stats.BytesRead, d.Stats.BytesWritten)
	}
	return uint64(wr+rd) / 2, nil
}

// probeDRAM: DRAM.Access of 4 KiB, writes and reads alternating; each
// access costs exactly the module latency.
func probeDRAM(n int, m *meter) (uint64, error) {
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(1))
	dram := plat.DRAM
	out, in := genBytes(5, probe4K), make([]byte, probe4K)
	var loopErr error
	eng.Spawn("dram", func(p *sim.Process) {
		for i := 0; i < n; i += 2 {
			addr := (i % 1024) * probe4K
			if err := errors.Join(dram.Access(p, true, addr, out, nil), dram.Access(p, false, addr, in, nil)); err != nil {
				loopErr = err
				return
			}
			if !bytes.Equal(in, out) {
				loopErr = fmt.Errorf("access %d: data did not round-trip", i)
				return
			}
		}
	})
	m.start()
	end := eng.Run()
	m.stop()
	if loopErr != nil {
		return 0, loopErr
	}
	if end != sim.Time(n)*dram.Latency() {
		return 0, fmt.Errorf("%d accesses ended at cycle %d, want %d", n, end, sim.Time(n)*dram.Latency())
	}
	return uint64(dram.Latency()), nil
}

// probeNullSyscall: m3.Env.Noop on the harness's platform. The first
// 16 calls after one warm-up call are exactly bench.NullSyscallM3's
// calibrated Fig. 3 measurement (m3fs still booting beside them) and
// must cost the same cycles; the n calls after them are timed.
func probeNullSyscall(n int, m *meter) (uint64, error) {
	const calRounds = 16 // NullSyscallM3's rounds
	want, _ := bench.NullSyscallM3()
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, platformConfig(bench.M3Options{}, 1))
	kern := core.Boot(plat, 0)
	if _, err := kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(kern, m3fs.Config{}, nil)); err != nil {
		return 0, err
	}
	var per sim.Time
	var loopErr error
	_, err := kern.StartInit("app", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		noops := func(k int) {
			for i := 0; i < k && loopErr == nil; i++ {
				loopErr = env.Noop()
			}
		}
		noops(1)
		start := ctx.Now()
		noops(calRounds)
		per = (ctx.Now() - start) / calRounds
		m.start()
		noops(n)
		m.stop()
		env.Exit(0)
	})
	if err != nil {
		return 0, err
	}
	eng.Run()
	if loopErr != nil {
		return 0, loopErr
	}
	if per != want {
		return 0, fmt.Errorf("null syscall took %d cycles, bench.NullSyscallM3 says %d", per, want)
	}
	return uint64(per), nil
}

func newSPM() *mem.SPM { return mem.NewSPM(64 << 10) }
