// Package bench is the evaluation harness: it re-runs every experiment
// from the paper's evaluation (§5, Figures 3–7 and the §5.2
// cross-check) on the simulated platform and prints the corresponding
// rows/series. See EXPERIMENTS.md for paper-vs-measured numbers.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/linuxos"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

// Breakdown splits a measured run into the paper's stacked-bar
// categories.
type Breakdown struct {
	App   sim.Time // application compute (incl. unsupported syscalls)
	Xfer  sim.Time // data transfers (DTU or memcpy)
	OS    sim.Time // everything else: syscalls, services, libm3/libc
	Total sim.Time
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%d (app=%d xfer=%d os=%d)", b.Total, b.App, b.Xfer, b.OS)
}

// M3Options configures an M3 run.
type M3Options struct {
	// FFTPEs adds accelerator cores to the platform.
	FFTPEs int
	// ExtraPEs adds spare general-purpose cores (children need them).
	ExtraPEs int
	// NoCUnlimited disables link contention ("the NoC scales
	// perfectly", §5.7).
	NoCUnlimited bool
	// NoCTorus adds wrap-around links (topology ablation).
	NoCTorus bool
	// DRAMPorts overrides the memory ports (0 = 1).
	DRAMPorts int
	// DRAMSize overrides the module size.
	DRAMSize int
	// FS configures m3fs.
	FS m3fs.Config
	// FSPolicy, when MaxRestarts > 0, starts m3fs under kernel
	// supervision: a crashed service incarnation is respawned on a
	// spare PE (provide one via ExtraPEs) with a bumped service epoch.
	FSPolicy core.RestartPolicy
	// AppendBlocks/NoMerge tune the client's extent allocation
	// (Figure 4).
	AppendBlocks int
	NoMerge      bool
	// Obs, if set, is the structured tracer wired through the NoC and
	// every DTU (spans, histograms, flight recorder). Nil keeps
	// structured observability fully off.
	Obs *obs.Tracer
	// SampleEvery, when nonzero (and Obs is set), starts the metrics
	// sampler: every SampleEvery cycles each registered series records
	// one sample. Zero keeps the sampler off, scheduling no extra
	// events — RunStats stay bit-identical to a sampler-free run.
	SampleEvery sim.Time
	// Engine is passed to sim.NewEngineWith by callers that build their
	// own engine. sim.Config has no options, so it changes nothing.
	Engine sim.Config
	// DispatchCostDelta perturbs the kernel's per-syscall dispatch cost
	// (core.CostDispatch) by the given number of cycles — the seeded
	// regression of the m3diff self-test. Zero (the default) leaves the
	// cost table untouched and the run bit-identical.
	DispatchCostDelta sim.Time
	// Overload, when set, arms the end-to-end overload-control stack
	// (docs/OVERLOAD.md): deadline stamping on every PE DTU, admission
	// control on the m3fs PE, and the kernel's shed controller and
	// circuit breakers. Nil (the default) keeps every knob off and the
	// run bit-identical to the unarmed baseline.
	Overload *OverloadSpec
}

// OverloadSpec is the harness-level overload policy: one struct arms
// all three layers consistently.
type OverloadSpec struct {
	// CallDeadline is the cycle budget stamped into service-call
	// headers platform-wide (DTU deadline registers + kernel calls).
	CallDeadline sim.Time
	// RxWatermark is the admission watermark on the m3fs service PE's
	// DTU: requests arriving with this many messages already queued are
	// refused with a fast-fail NACK instead of being buffered.
	RxWatermark int
	// Shed/Breaker parameterize the kernel's per-service shed
	// controllers and circuit breakers.
	Shed    overload.ShedConfig
	Breaker overload.BreakerConfig
}

// m3System is a booted M3 platform.
type m3System struct {
	eng  *sim.Engine
	plat *tile.Platform
	kern *core.Kernel
}

func bootM3(opt M3Options, appPEs int) *m3System {
	s := bootM3NoFS(opt, appPEs)
	if _, err := s.kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(s.kern, opt.FS, nil)); err != nil {
		panic(err)
	}
	return s
}

// bootM3NoFS builds the platform and kernel without starting m3fs, for
// harness variants that need the service handle.
func bootM3NoFS(opt M3Options, appPEs int) *m3System {
	eng := sim.NewEngine()
	types := []tile.CoreType{tile.CoreXtensa, tile.CoreXtensa} // kernel, m3fs
	for i := 0; i < appPEs+opt.ExtraPEs; i++ {
		types = append(types, tile.CoreXtensa)
	}
	for i := 0; i < opt.FFTPEs; i++ {
		types = append(types, tile.CoreFFT)
	}
	cfg := tile.Config{PEs: types, Obs: opt.Obs}
	cfg.NoC.Unlimited = opt.NoCUnlimited
	cfg.NoC.Torus = opt.NoCTorus
	if opt.DRAMPorts > 0 {
		cfg.DRAM.Ports = opt.DRAMPorts
	}
	if opt.DRAMSize > 0 {
		cfg.DRAM.Size = opt.DRAMSize
	}
	plat := tile.NewPlatform(eng, cfg)
	kern := core.Boot(plat, 0)
	if opt.DispatchCostDelta != 0 {
		kern.PerturbSyscallCost(opt.DispatchCostDelta)
	}
	if ov := opt.Overload; ov != nil {
		// Arm every PE DTU so deadlines ride in all message headers; the
		// m3fs PE (index 1 by construction) additionally enforces the
		// admission watermark on its receive gates.
		for i, pe := range plat.PEs {
			c := &dtu.OverloadConfig{CallDeadline: ov.CallDeadline}
			if i == 1 {
				c.RxWatermark = ov.RxWatermark
			}
			pe.DTU.EnableOverload(c)
		}
		kern.EnableOverload(core.OverloadConfig{
			CallDeadline: ov.CallDeadline,
			Shed:         ov.Shed,
			Breaker:      ov.Breaker,
		})
	}
	if opt.Obs.On() && opt.SampleEvery > 0 {
		opt.Obs.Metrics().StartSampler(eng, opt.SampleEvery)
	}
	return &m3System{eng: eng, plat: plat, kern: kern}
}

// xferCycles estimates the DTU data-transfer cycles from the hardware
// counters: streamed bytes at 8 B/cycle plus the fixed per-transfer
// DRAM/NoC latency.
func (s *m3System) xferCycles() sim.Time {
	var bytes, ops uint64
	for _, pe := range s.plat.PEs {
		st := pe.DTU.Stats
		bytes += st.BytesRead + st.BytesWritten
		ops += st.MemReads + st.MemWrites
	}
	perOp := s.plat.DRAM.Latency() + 8 // latency + a few hops
	return sim.Time(bytes/8) + sim.Time(ops)*perOp
}

// RunStats describes the simulation run itself, independent of the
// workload's cycle breakdown: the exact number of executed events and
// the final simulated time. Two runs of the same configuration must
// produce identical RunStats — this is the runtime witness for the
// determinism invariants m3vet enforces statically.
type RunStats struct {
	ExecutedEvents uint64
	FinalTime      sim.Time
}

// RunM3 executes one benchmark on a fresh M3 system and returns the
// measured breakdown of the run phase.
func RunM3(b workload.Benchmark, opt M3Options) (Breakdown, error) {
	bd, _, err := RunM3Stats(b, opt)
	return bd, err
}

// RunM3Stats is RunM3 plus engine-level run statistics.
func RunM3Stats(b workload.Benchmark, opt M3Options) (Breakdown, RunStats, error) {
	s := bootM3(opt, b.PEs)
	var bd Breakdown
	var runErr error
	_, err := s.kern.StartInit("app", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, s.kern)
		os, err := workload.NewM3OS(env)
		if err != nil {
			runErr = err
			return
		}
		if opt.AppendBlocks > 0 {
			os.FS.AppendBlocks = opt.AppendBlocks
		}
		os.FS.NoMerge = opt.NoMerge
		if err := b.Setup(os); err != nil {
			runErr = err
			return
		}
		os.ResetAppCycles()
		xferBase := s.xferCycles()
		start := ctx.Now()
		if err := b.Run(os); err != nil {
			runErr = err
			return
		}
		bd.Total = ctx.Now() - start
		// Parent and child PEs overlap (pipes): cap each category at
		// the remaining wall time, app first, then transfers.
		bd.App = sim.Time(os.AppCycles())
		if bd.App > bd.Total {
			bd.App = bd.Total
		}
		bd.Xfer = s.xferCycles() - xferBase
		if bd.App+bd.Xfer > bd.Total {
			bd.Xfer = bd.Total - bd.App
		}
		bd.OS = bd.Total - bd.App - bd.Xfer
		env.Exit(0)
	})
	if err != nil {
		return bd, RunStats{}, err
	}
	s.eng.Run()
	st := RunStats{ExecutedEvents: s.eng.ExecutedEvents(), FinalTime: s.eng.Now()}
	return bd, st, runErr
}

// RunLx executes one benchmark on a fresh Linux system with the given
// profile and cache variant.
func RunLx(b workload.Benchmark, prof linuxos.Profile, cold bool) (Breakdown, error) {
	eng := sim.NewEngine()
	sys := linuxos.New(eng, prof, cold)
	var bd Breakdown
	var runErr error
	sys.Spawn("app", func(pr *linuxos.Proc) {
		os := workload.NewLxOS(sys, pr)
		if err := b.Setup(os); err != nil {
			runErr = err
			return
		}
		base := sys.Stats
		start := pr.P().Now()
		if err := b.Run(os); err != nil {
			runErr = err
			return
		}
		bd.Total = pr.P().Now() - start
		bd.App = sys.Stats.App - base.App
		bd.Xfer = sys.Stats.Xfer - base.Xfer
		bd.OS = sys.Stats.OS - base.OS
	})
	eng.Run()
	return bd, runErr
}

// RunM3Instances runs n parallel instances of b on one M3 system with
// a single kernel and a single m3fs (Figure 6). All instances start
// their run phase together after every setup finished; the returned
// value is the mean run time per instance.
func RunM3Instances(b workload.Benchmark, n int) (sim.Time, error) {
	opt := M3Options{
		NoCUnlimited: true,
		DRAMPorts:    64,
		DRAMSize:     512 << 20,
		FS:           m3fs.Config{RegionSize: 384 << 20},
	}
	s := bootM3(opt, n*b.PEs)
	ready := 0
	startSig := sim.NewSignal(s.eng)
	times := make([]sim.Time, 0, n)
	var runErr error
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("/i%d", i)
		_, err := s.kern.StartInit(fmt.Sprintf("app%d", i), tile.CoreXtensa, func(ctx *tile.Ctx) {
			env := m3.NewEnv(ctx, s.kern)
			os, err := workload.NewM3OS(env)
			if err != nil {
				runErr = err
				return
			}
			os.Prefix = prefix
			if err := os.Mkdir(""); err != nil && prefix != "" {
				runErr = err
				return
			}
			if err := b.Setup(os); err != nil {
				runErr = err
				return
			}
			// Barrier: start all instances at the same time.
			ready++
			if ready == n {
				startSig.Broadcast()
			} else {
				startSig.Wait(ctx.P)
			}
			start := ctx.Now()
			if err := b.Run(os); err != nil {
				runErr = err
				return
			}
			times = append(times, ctx.Now()-start)
			env.Exit(0)
		})
		if err != nil {
			return 0, err
		}
	}
	s.eng.Run()
	if runErr != nil {
		return 0, runErr
	}
	var drops uint64
	for _, pe := range s.plat.PEs {
		drops += pe.DTU.Stats.MsgsDropped
	}
	if drops > 0 {
		return 0, fmt.Errorf("bench: %d messages dropped (ringbuffer overcommit)", drops)
	}
	if len(times) != n {
		return 0, fmt.Errorf("bench: only %d of %d instances finished", len(times), n)
	}
	var sum sim.Time
	for _, t := range times {
		sum += t
	}
	return sum / sim.Time(n), nil
}

// NullSyscallM3 measures the M3 null system call and its wire share.
func NullSyscallM3() (total, xfer sim.Time) {
	s := bootM3(M3Options{}, 1)
	var t sim.Time
	_, err := s.kern.StartInit("app", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, s.kern)
		const rounds = 16
		if err := env.Noop(); err != nil { // warm up
			panic(err)
		}
		start := ctx.Now()
		for i := 0; i < rounds; i++ {
			if err := env.Noop(); err != nil {
				panic(err)
			}
		}
		t = (ctx.Now() - start) / rounds
		env.Exit(0)
	})
	if err != nil {
		panic(err)
	}
	s.eng.Run()
	// Wire share: request and reply transfer times between the app PE
	// (id 2) and the kernel (id 0).
	app := s.plat.PEs[2].Node
	kern := s.plat.PEs[0].Node
	x := s.plat.Net.TransferTime(app, kern, dtu.HeaderSize+8) +
		s.plat.Net.TransferTime(kern, app, dtu.HeaderSize+8)
	return t, x
}

// NullSyscallLx returns the Linux null-syscall cost for a profile.
func NullSyscallLx(prof linuxos.Profile) sim.Time { return prof.SyscallCost }
