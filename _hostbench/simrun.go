package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/workload"
)

// Workload names, as passed to --workload.
const (
	wBulk     = "bulk"
	wMeta     = "meta"
	wScale    = "scale"
	wObserved = "observed"
)

var workloadNames = []string{wBulk, wMeta, wScale, wObserved}

// scaleClients is the Figure 6 shape: concurrent clients on one kernel
// and one m3fs.
const scaleClients = 16

// witnessSampleEvery is the metrics sampling interval `m3bench
// -capture` arms (internal/bench's witness interval).
const witnessSampleEvery sim.Time = 4096

// inputs is everything one workload's simulations are fed, generated
// once per process from the seed.
type inputs struct {
	name  string
	bulk  *bulkInput
	metas []*metaInput // one per client
}

func genInputs(name string, seed uint64) (*inputs, error) {
	in := &inputs{name: name}
	switch name {
	case wBulk:
		in.bulk = genBulk(seed)
	case wMeta, wObserved:
		in.metas = []*metaInput{genMeta(seed, metaSingle)}
	case wScale:
		for i := 0; i < scaleClients; i++ {
			in.metas = append(in.metas, genMeta(seed*scaleClients+uint64(i), metaUnit))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return in, nil
}

// options returns the harness options the workload runs with: the
// production defaults, or the RunM3Instances platform for scale.
func (in *inputs) options(delta sim.Time) bench.M3Options {
	opt := bench.M3Options{DispatchCostDelta: delta}
	if in.name == wScale {
		opt.NoCUnlimited = true
		opt.DRAMPorts = 64
		opt.DRAMSize = 512 << 20
		opt.FS = m3fs.Config{RegionSize: 384 << 20}
	}
	return opt
}

// simOpts selects what one simulation arms besides the workload.
type simOpts struct {
	delta  sim.Time // bench.M3Options.DispatchCostDelta
	obs    bool     // the m3bench -capture obs stack
	traced bool     // boundary spans, phase spans, counters
}

// simResult is one simulation's outcome. Final/Run/Capture are the
// simulated results the correctness gate pins; the rest is host cost.
type simResult struct {
	Final   uint64 `json:"final"`             // final simulated cycle
	Run     uint64 `json:"run"`               // run-phase cycles, summed over clients
	Capture uint64 `json:"capture,omitempty"` // FNV-64a of the capture JSON (obs armed)
	Err     string `json:"err,omitempty"`

	WallNs     int64  `json:"wall_ns"` // boot -> drain (-> capture when obs is armed)
	CPUNs      int64  `json:"cpu_ns"`  // process CPU time over the same span, all threads
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	RefNs      int64  `json:"ref_ns,omitempty"` // hostRef's CPU time just before this simulation

	Trace *simTrace `json:"trace,omitempty"`
}

// simTrace is the traced run's per-simulation layer data.
type simTrace struct {
	BootNs, SetupNs, RunNs, DrainNs int64

	Events, Packets, NoCBytes      uint64
	Msgs, RDMAOps, RDMABytes, Sysc uint64

	ObsEvents    uint64
	ObsSinkNs    int64
	ObsCaptureNs int64
}

func (r *simResult) fail(err error) {
	if err != nil && r.Err == "" {
		r.Err = err.Error()
	}
}

// simulate runs one complete simulation: boot, m3fs, the workload's
// clients, drain. It builds the platform the way bench.RunM3Stats and
// bench.RunM3Instances do (same PE order, program names, and options)
// but keeps the handles the checks and counters need. rec, when
// non-nil, receives the OS boundary spans of every client.
func simulate(in *inputs, o simOpts, rec *spanRec) simResult {
	var res simResult
	opt := in.options(o.delta)
	var (
		prof      *obs.Profiler
		cp        *obs.CritPath
		obsEvents uint64
		sinkNs    int64
	)
	if o.obs {
		prof = obs.NewProfiler()
		cp = obs.NewCritPath(obs.CritPathOptions{})
		sink := func(ev obs.Event) {
			prof.Consume(ev)
			cp.Consume(ev)
		}
		if o.traced {
			sink = func(ev obs.Event) {
				t := time.Now()
				prof.Consume(ev)
				cp.Consume(ev)
				sinkNs += int64(time.Since(t))
				obsEvents++
			}
		}
		opt.Obs = obs.New(obs.Options{Sink: sink})
		opt.SampleEvery = witnessSampleEvery
	}
	nApps := len(in.metas)
	if in.bulk != nil {
		nApps = 1
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cpuTime()
	t0 := time.Now()
	eng := sim.NewEngineWith(opt.Engine)
	plat := tile.NewPlatform(eng, platformConfig(opt, nApps))
	kern := core.Boot(plat, 0)
	if opt.DispatchCostDelta != 0 {
		kern.PerturbSyscallCost(opt.DispatchCostDelta)
	}
	if opt.Obs.On() && opt.SampleEvery > 0 {
		opt.Obs.Metrics().StartSampler(eng, opt.SampleEvery)
	}
	var svc *m3fs.Service
	if _, err := kern.StartInit("m3fs", tile.CoreXtensa, m3fs.Program(kern, opt.FS, func(s *m3fs.Service) { svc = s })); err != nil {
		res.fail(err)
		return res
	}

	var (
		tBoot, tSetup, tLast time.Time
		runErr               error
		ready                int
		runCycles            sim.Time
	)
	startSig := sim.NewSignal(eng)
	app := func(i int, b workload.Benchmark) core.Program {
		return func(ctx *tile.Ctx) {
			if tBoot.IsZero() {
				tBoot = time.Now()
			}
			env := m3.NewEnv(ctx, kern)
			mos, err := workload.NewM3OS(env)
			if err != nil {
				runErr = errors.Join(runErr, err)
				return
			}
			var os workload.OS = mos
			if rec != nil {
				os = &spanOS{OS: mos, rec: rec}
			}
			if nApps > 1 {
				mos.Prefix = fmt.Sprintf("/i%d", i)
				if err := os.Mkdir(""); err != nil {
					runErr = errors.Join(runErr, err)
					return
				}
			}
			if err := b.Setup(os); err != nil {
				runErr = errors.Join(runErr, fmt.Errorf("client %d setup: %w", i, err))
				return
			}
			// All clients start their run phase together, as in
			// bench.RunM3Instances.
			ready++
			if ready == nApps {
				tSetup = time.Now()
				startSig.Broadcast()
			} else {
				startSig.Wait(ctx.P)
			}
			start := ctx.Now()
			if err := b.Run(os); err != nil {
				runErr = errors.Join(runErr, fmt.Errorf("client %d run: %w", i, err))
				return
			}
			runCycles += ctx.Now() - start
			env.Exit(0)
			tLast = time.Now()
		}
	}
	for i, b := range in.programs() {
		name := "app"
		if nApps > 1 {
			name = fmt.Sprintf("app%d", i)
		}
		if _, err := kern.StartInit(name, tile.CoreXtensa, app(i, b)); err != nil {
			res.fail(err)
			return res
		}
	}
	end := eng.Run()
	tEnd := time.Now()
	var capNs int64
	if o.obs {
		var err error
		res.Capture, err = captureHash(in.name, opt.Obs, prof, cp)
		res.fail(err)
		capNs = int64(time.Since(tEnd))
	}
	res.WallNs = int64(time.Since(t0))
	res.CPUNs = cpuTime() - c0
	runtime.ReadMemStats(&ms1)
	res.Allocs = ms1.Mallocs - ms0.Mallocs
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Final = uint64(end)
	res.Run = uint64(runCycles)

	res.fail(runErr)
	if eng.Deadlocked() {
		res.fail(errors.New("engine deadlocked: a client is parked forever"))
	}
	var drops uint64
	for _, pe := range plat.PEs {
		drops += pe.DTU.Stats.MsgsDropped
	}
	if drops > 0 {
		res.fail(fmt.Errorf("%d messages dropped", drops))
	}
	if svc == nil {
		res.fail(errors.New("m3fs never became ready"))
	} else if res.Err == "" {
		res.fail(in.checkTree(svc.FS()))
	}

	if o.traced {
		t := &simTrace{
			Events:       eng.ExecutedEvents(),
			Packets:      plat.Net.PacketsSent,
			NoCBytes:     plat.Net.BytesSent,
			ObsEvents:    obsEvents,
			ObsSinkNs:    sinkNs,
			ObsCaptureNs: capNs,
		}
		if !tBoot.IsZero() && !tSetup.IsZero() && !tLast.IsZero() {
			t.BootNs = int64(tBoot.Sub(t0))
			t.SetupNs = int64(tSetup.Sub(tBoot))
			t.RunNs = int64(tLast.Sub(tSetup))
			t.DrainNs = int64(tEnd.Sub(tLast))
		}
		for _, pe := range plat.PEs {
			st := pe.DTU.Stats
			t.Msgs += st.MsgsSent
			t.RDMAOps += st.MemReads + st.MemWrites
			t.RDMABytes += st.BytesRead + st.BytesWritten
		}
		for _, n := range kern.Stats.Syscalls {
			t.Sysc += n
		}
		res.Trace = t
	}
	return res
}

// captureHash builds the run capture as m3bench -capture does and
// returns the FNV-64a hash of its JSON.
func captureHash(name string, tr *obs.Tracer, prof *obs.Profiler, cp *obs.CritPath) (uint64, error) {
	hists := append(tr.Histograms(), cp.Hist())
	c := obs.NewRunCapture(name, prof, cp, tr.Metrics(), hists)
	h := fnv.New64a()
	err := c.WriteJSON(h)
	return h.Sum64(), err
}

// programs returns one program per client.
func (in *inputs) programs() []workload.Benchmark {
	if in.bulk != nil {
		return []workload.Benchmark{in.bulk.program()}
	}
	var bs []workload.Benchmark
	for _, m := range in.metas {
		bs = append(bs, workload.Benchmark{Name: in.name, PEs: 1, Setup: m.setup, Run: m.run})
	}
	return bs
}

// platformConfig mirrors the harness's platform: kernel PE, m3fs PE,
// one PE per client, then the memory tile.
func platformConfig(opt bench.M3Options, apps int) tile.Config {
	cfg := tile.Homogeneous(2 + apps)
	cfg.Obs = opt.Obs
	cfg.NoC.Unlimited = opt.NoCUnlimited
	if opt.DRAMPorts > 0 {
		cfg.DRAM.Ports = opt.DRAMPorts
	}
	if opt.DRAMSize > 0 {
		cfg.DRAM.Size = opt.DRAMSize
	}
	return cfg
}

// checkTree compares the final filesystem with the generator's model.
func (in *inputs) checkTree(fs *m3fs.FsCore) error {
	if in.bulk != nil {
		return in.bulk.checkTree(fs)
	}
	if len(in.metas) == 1 {
		return in.metas[0].checkTree(fs, "")
	}
	roots := map[string]int64{}
	for i, m := range in.metas {
		prefix := fmt.Sprintf("/i%d", i)
		roots[prefix[1:]] = -1
		if err := m.checkTree(fs, prefix); err != nil {
			return err
		}
	}
	return expectDir(fs, "/", roots)
}
