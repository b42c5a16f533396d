package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
)

// A worker is one short-lived process that generates the inputs, runs
// one warm-up simulation, then a fixed number of measured ones, each
// right after one run of the host reference (hostref.go). Every
// simulation leaks its parked daemon goroutines and, through them, its
// whole platform (64 MiB of DRAM, 512 MiB at scale), so a long loop in
// one process would time the growing leak too. Fixing the number of
// simulations per process makes the i-th sample see the same process
// history on every run, and bounds the memory a run holds.

// workerReq is what the parent process asks one worker to do.
type workerReq struct {
	Workload string
	Seed     uint64
	Sims     int      // measured simulations after the warm-up
	Delta    sim.Time // bench.M3Options.DispatchCostDelta
	// Traced arms boundary spans, counters, and the CPU profile (and
	// times the obs sink on observed).
	Traced bool
}

// workerReport is a worker's answer, written as one JSON line.
type workerReport struct {
	SetupNs    int64  `json:"setup_ns"`     // process entry -> first measured simulation
	SetupCPUNs int64  `json:"setup_cpu_ns"` // process CPU time until then
	Heap0      uint64 `json:"heap0"`        // post-GC live heap before the warm-up
	Heap1      uint64 `json:"heap1"`        // post-GC live heap after the last simulation
	Gor0       int    `json:"gor0"`
	Gor1       int    `json:"gor1"`

	Warm simResult   `json:"warm"`
	Sims []simResult `json:"sims"`

	// Traced workers only.
	OpMedianNs [numOSOps]float64 `json:"op_median_ns"`
	OpCalls    [numOSOps]int     `json:"op_calls"`
	CPU        map[string]int64  `json:"cpu,omitempty"` // profile samples per bucket
}

func runWorker(req workerReq, start time.Time) (*workerReport, error) {
	in, err := genInputs(req.Workload, req.Seed)
	if err != nil {
		return nil, err
	}
	rep := &workerReport{}
	rep.Heap0, rep.Gor0 = liveHeap()
	o := simOpts{delta: req.Delta, obs: req.Workload == wObserved}
	hostRef()
	rep.Warm = simulate(in, o, nil)

	var rec *spanRec
	var prof bytes.Buffer
	if req.Traced {
		o.traced = true
		rec = &spanRec{}
		runtime.GC()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rep.SetupNs = int64(time.Since(start))
	rep.SetupCPUNs = cpuTime()
	for i := 0; i < req.Sims; i++ {
		runtime.GC()
		var ref int64
		if !req.Traced { // the traced run is not scaled; keep it out of the profile
			ref = hostRef()
		}
		r := simulate(in, o, rec)
		r.RefNs = ref
		rep.Sims = append(rep.Sims, r)
	}
	if req.Traced {
		pprof.StopCPUProfile()
		if rep.CPU, err = attributeProfile(prof.Bytes()); err != nil {
			return nil, err
		}
		for op := range rec.ns {
			if rep.OpCalls[op] = len(rec.ns[op]); rep.OpCalls[op] > 0 {
				rep.OpMedianNs[op] = quantile(rec.ns[op], 0.5)
			}
		}
	}
	rep.Heap1, rep.Gor1 = liveHeap()
	return rep, nil
}

// liveHeap returns the post-GC live heap and the goroutine count.
func liveHeap() (uint64, int) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, runtime.NumGoroutine()
}
