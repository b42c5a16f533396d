package main

import (
	"fmt"
	"time"
)

// The traced run (--trace 1) gives the per-layer numbers. It is kept
// apart from the timing runs: it first repeats a short untraced timing
// run for comparison, then runs the isolated probes, then spends the
// rest of its time in traced workers (OS boundary spans, phase spans,
// counters, CPU profile). The traced p50 against the untraced p50 is
// the tracing overhead.

const untracedShare = 30 // percent of the budget for the untraced comparison run

func traced(req workerReq, budget time.Duration, g *gate) ([]metric, []string, error) {
	t0 := time.Now()
	ref := runWorkers(req, budget*untracedShare/100, 1)
	g.addWorkers(ref)
	e2e := endToEnd(ref)

	var probes []probeResult
	if err := spawn(&probes, "-probes"); err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	for _, p := range probes {
		if p.Err != "" {
			g.failNote(p.Err)
		}
	}

	treq := req
	treq.Traced = true
	touts := runWorkers(treq, budget-time.Since(t0), 1)
	g.addWorkers(touts)

	var ms []metric
	add := func(name string, v float64, unit string, n int) { ms = append(ms, metric{name, v, unit, n}) }

	// Phase spans, counters, and the obs sink, per traced simulation.
	var boot, setup, run, drain, cpuMs []float64
	var events, pkts, nocKiB, msgs, rdma, rdmaKiB, sysc []float64
	var obsEv, obsCap []float64
	var obsNs, obsN float64
	var opMed [numOSOps][]float64
	var opCalls [numOSOps][]float64
	cpu := map[string]int64{}
	for _, o := range touts {
		if o.rep == nil {
			continue
		}
		for _, s := range o.rep.Sims {
			t := s.Trace
			if t == nil {
				continue
			}
			cpuMs = append(cpuMs, float64(s.CPUNs)/1e6)
			boot = append(boot, float64(t.BootNs)/1e6)
			setup = append(setup, float64(t.SetupNs)/1e6)
			run = append(run, float64(t.RunNs)/1e6)
			drain = append(drain, float64(t.DrainNs)/1e6)
			events = append(events, float64(t.Events))
			pkts = append(pkts, float64(t.Packets))
			nocKiB = append(nocKiB, float64(t.NoCBytes)/1024)
			msgs = append(msgs, float64(t.Msgs))
			rdma = append(rdma, float64(t.RDMAOps))
			rdmaKiB = append(rdmaKiB, float64(t.RDMABytes)/1024)
			sysc = append(sysc, float64(t.Sysc))
		}
		for _, s := range o.rep.Sims {
			if t := s.Trace; t != nil && t.ObsEvents > 0 {
				obsEv = append(obsEv, float64(t.ObsEvents))
				obsCap = append(obsCap, float64(t.ObsCaptureNs)/1e6)
				obsNs += float64(t.ObsSinkNs)
				obsN += float64(t.ObsEvents)
			}
		}
		nsims := float64(len(o.rep.Sims))
		for op := range opMed {
			opMed[op] = append(opMed[op], o.rep.OpMedianNs[op]/1e3)
			opCalls[op] = append(opCalls[op], float64(o.rep.OpCalls[op])/nsims)
		}
		for k, v := range o.rep.CPU {
			cpu[k] += v
		}
	}
	n := len(cpuMs)
	add("tile.boot_ms", quantile(boot, 0.5), "ms", n)
	add("workload.setup_ms", quantile(setup, 0.5), "ms", n)
	add("workload.run_ms", quantile(run, 0.5), "ms", n)
	add("sim.drain_ms", quantile(drain, 0.5), "ms", n)
	for op := osOp(0); op < numOSOps; op++ {
		add("m3."+osOpNames[op]+"_us", quantile(opMed[op], 0.5), "us", len(opMed[op]))
		add("m3."+osOpNames[op]+"_calls", quantile(opCalls[op], 0.5), "count", len(opCalls[op]))
	}
	add("sim.events_per_run", quantile(events, 0.5), "count", n)
	add("noc.packets_per_run", quantile(pkts, 0.5), "count", n)
	add("noc.kib_per_run", quantile(nocKiB, 0.5), "KiB", n)
	add("dtu.msgs_per_run", quantile(msgs, 0.5), "count", n)
	add("dtu.rdma_ops_per_run", quantile(rdma, 0.5), "count", n)
	add("dtu.rdma_kib_per_run", quantile(rdmaKiB, 0.5), "KiB", n)
	add("core.syscalls_per_run", quantile(sysc, 0.5), "count", n)

	var total int64
	for _, v := range cpu {
		total += v
	}
	frac := func(k string) float64 { return ratio(int(cpu[k]), int(total)) }
	for _, m := range cpuModules {
		add(m+".cpu_frac", frac(m), "fraction", int(total))
	}
	add("runtime.cpu_frac", frac(bucketRuntime), "fraction", int(total))
	add("runtime.gc_frac", frac(bucketGC), "fraction", int(total))
	add("bench.self_frac", frac(bucketBench), "fraction", int(total))

	for _, p := range probes {
		add(p.Name+"_ns", p.NsOp, "ns", probeReps)
		if p.Name == "sim.schedule" || p.Name == "sim.switch" {
			add(p.Name+"_allocs", p.Allocs, "count", probeReps)
		}
	}

	add("obs.events_per_run", quantile(obsEv, 0.5), "count", len(obsEv))
	add("obs.sink_ns_per_event", obsNs/obsN, "ns", int(obsN))
	add("obs.capture_ms", quantile(obsCap, 0.5), "ms", len(obsCap))

	tracedP50 := quantile(cpuMs, 0.5)
	add("bench.trace_overhead_frac", tracedP50/e2e.rawP50-1, "fraction", n)

	notes := []string{fmt.Sprintf("tracing overhead: traced run_ms_p50 %.3f ms (n=%d) vs untraced %.3f ms (n=%d), both on the unscaled CPU clock",
		tracedP50, n, e2e.rawP50, e2e.metrics[0].n)}
	if len(obsEv) == 0 {
		notes = append(notes, "obs.* are 0: the obs stack is armed on observed only")
	}
	for _, m := range e2e.metrics {
		notes = append(notes, fmt.Sprintf("untraced %s = %.4f %s (n=%d)", m.name, m.value, m.unit, m.n))
	}
	for _, p := range probes {
		notes = append(notes, fmt.Sprintf("probe %s: %.1f ns/op, %.2f allocs/op, %d simulated cycles/op asserted",
			p.Name, p.NsOp, p.Allocs, p.Cycles))
	}
	return ms, notes, nil
}
