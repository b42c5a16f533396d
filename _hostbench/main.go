// Command hostbench measures the host cost of the M3 simulator: host
// milliseconds per complete simulation, simulated cycles per host
// second, allocation and retained memory, and set-up time, on four
// seeded closed-loop workloads (bulk, meta, scale, observed). Every
// simulation's simulated results are checked against values pinned
// per seed. A separate traced run reports per-layer numbers: phase
// spans, OS boundary spans, public counters, a CPU profile split by
// module, and isolated probes of single layer functions.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 _hostbench/run.py --workload meta --seed 1 --seconds 30 --trace 0
//	python3 _hostbench/run.py --selftest
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"time"
)

func main() {
	start := time.Now()
	var (
		name     = flag.String("workload", wMeta, "workload: bulk, meta, scale, observed")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
		selftest = flag.Bool("selftest", false, "check that the correctness gate fires on a +1-cycle kernel perturbation")
		pin      = flag.Int("pin", 0, "print pins.json for seeds 0..N-1 plus the held-out seed, then exit")
		worker   = flag.String("worker", "", "internal: run one worker process (JSON request)")
		probe    = flag.Bool("probes", false, "internal: run the isolated probes")
		mix      = flag.Bool("mix", false, "print the measured op mix the meta workload is built from, then exit")
	)
	flag.Parse()

	var err error
	switch {
	case *worker != "":
		err = workerMain(*worker, start)
	case *probe:
		err = json.NewEncoder(os.Stdout).Encode(runProbes())
	case *mix:
		err = printMix()
	case *pin > 0:
		err = writePins(os.Stdout, *pin)
	case *selftest:
		err = selfTest()
	default:
		err = drive(driveReq{
			workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

func workerMain(arg string, start time.Time) error {
	var req workerReq
	if err := json.Unmarshal([]byte(arg), &req); err != nil {
		return fmt.Errorf("worker request: %w", err)
	}
	rep, err := runWorker(req, start)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawn runs one child process of this binary and decodes its JSON
// answer into out. The child's standard error passes through.
func spawn(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s: bad answer: %w", args[0], err)
	}
	return nil
}

// Simulations per worker process, after its warm-up. Fixed per
// workload so every run samples the same process histories. The
// leaked DRAM is never touched, so it costs address space, not
// resident memory; scale's 512 MiB per simulation still gets fewer.
var simsPerWorker = map[string]int{wBulk: 8, wMeta: 8, wScale: 6, wObserved: 8}

// runWorkers starts workers one after another until the budget would
// be exceeded by one more (at least min workers run). Failed workers
// come back with a nil report and the error.
func runWorkers(req workerReq, budget time.Duration, min int) []workerOutcome {
	var outs []workerOutcome
	t0 := time.Now()
	for {
		el := time.Since(t0)
		if n := len(outs); n >= min && el+el/time.Duration(n) > budget {
			return outs
		}
		b, _ := json.Marshal(req) // plain struct of numbers and strings
		var rep workerReport
		err := spawn(&rep, "-worker", string(b))
		if err != nil {
			outs = append(outs, workerOutcome{req: req, err: err})
			continue
		}
		outs = append(outs, workerOutcome{req: req, rep: &rep})
	}
}

type workerOutcome struct {
	req workerReq
	rep *workerReport
	err error
}

type driveReq struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
}

// metric is one printed metric: value, unit, and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func drive(d driveReq) error {
	if _, err := genInputs(d.workload, d.seed); err != nil {
		return err
	}
	budget := time.Duration(d.seconds) * time.Second
	req := workerReq{Workload: d.workload, Seed: d.seed, Sims: simsPerWorker[d.workload]}
	g := newGate(d.workload, d.seed)
	fmt.Println(provenance(d.seed))

	var metrics []metric
	var notes []string
	if !d.traced {
		outs := runWorkers(req, budget, 2)
		g.addWorkers(outs)
		e2e := endToEnd(outs)
		metrics = e2e.metrics
		notes = e2e.notes
	} else {
		var err error
		metrics, notes, err = traced(req, budget, g)
		if err != nil {
			g.failNote(err.Error())
		}
	}
	notes = append(notes, fmt.Sprintf("fail_ratio = %.4f (%d failed of %d simulations attempted)",
		ratio(g.failed, g.attempted), g.failed, g.attempted))
	notes = append(notes, g.notes...)
	for i, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			metrics[i].value = 0 // no samples
		}
		fmt.Printf("%-28s %14.4f %-7s n=%d\n", m.name, metrics[i].value, m.unit, m.n)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	out := map[string]any{
		"correct":   g.failed == 0 && !g.broken,
		"attempted": g.attempted,
		"failed":    g.failed,
	}
	ms := map[string]any{}
	for _, m := range metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	return json.NewEncoder(os.Stdout).Encode(out)
}

type e2eResult struct {
	metrics []metric
	notes   []string
	rawP50  float64 // run_ms_p50 on the CPU clock, not scaled to the host reference
}

// endToEnd computes the untraced metrics from the workers' reports.
// Host times are process CPU time, scaled to the host reference (see
// hostref.go): on a shared host, wall time also counts every moment the
// hypervisor gave the CPUs to someone else, and CPU time still moves
// with the neighbours' load. The unscaled CPU and wall-clock figures are
// printed as notes.
func endToEnd(outs []workerOutcome) e2eResult {
	var cpu, wall, ref, allocs, allocMB, setup, setupWall, heap, gor, leakMB, leakGor []float64
	// Simulated cycles over the simulations' own host time: the forced
	// GC between them belongs to the benchmark, not the program.
	var cycles, cpuNs, wallNs float64
	for _, o := range outs {
		if o.rep == nil {
			continue
		}
		r := o.rep
		for _, s := range r.Sims {
			cpu = append(cpu, float64(s.CPUNs)/1e6)
			wall = append(wall, float64(s.WallNs)/1e6)
			ref = append(ref, float64(s.RefNs))
			allocs = append(allocs, float64(s.Allocs))
			allocMB = append(allocMB, float64(s.AllocBytes)/(1<<20))
			cycles += float64(s.Final)
			cpuNs += float64(s.CPUNs)
			wallNs += float64(s.WallNs)
		}
		setup = append(setup, float64(r.SetupCPUNs)/1e9)
		setupWall = append(setupWall, float64(r.SetupNs)/1e9)
		heap = append(heap, float64(r.Heap1)/(1<<20))
		gor = append(gor, float64(r.Gor1))
		sims := float64(len(r.Sims) + 1)
		leakMB = append(leakMB, (float64(r.Heap1)-float64(r.Heap0))/(1<<20)/sims)
		leakGor = append(leakGor, float64(r.Gor1-r.Gor0)/sims)
	}
	// k scales a CPU time to the host reference.
	k := 1.0
	if m := quantile(ref, 0.5); m > 0 {
		k = refNominalNs / m
	}
	q := tailQuantile[outs[0].req.Workload]
	beyond := len(cpu) - 1 - rank(len(cpu), q)
	res := e2eResult{rawP50: quantile(cpu, 0.5)}
	res.metrics = []metric{
		{"run_ms_p50", res.rawP50 * k, "ms", len(cpu)},
		{"run_ms_tail", quantile(cpu, q) * k, "ms", len(cpu)},
		{"sim_mcycles_per_s", cycles / cpuNs * 1e3 / k, "Mcycles/s", len(cpu)},
		{"allocs_per_run", quantile(allocs, 0.5), "count", len(allocs)},
		{"alloc_mb_per_run", quantile(allocMB, 0.5), "MB", len(allocMB)},
		{"retained_mb", quantile(heap, 0.5), "MB", len(heap)},
		{"retained_goroutines", quantile(gor, 0.5), "count", len(gor)},
		{"setup_s", quantile(setup, 0.5) * k, "s", len(setup)},
	}
	res.notes = []string{
		fmt.Sprintf("run_ms_tail is p%g: %d of %d samples beyond it (fewer than 10 makes the tail unreliable)", q*100, beyond, len(cpu)),
		fmt.Sprintf("host reference: median %.4f ms CPU (n=%d), so host times are scaled by %.4f", quantile(ref, 0.5)/1e6, len(ref), k),
		fmt.Sprintf("CPU clock, unscaled: run_ms_p50 %.4f ms, run_ms_tail %.4f ms, sim_mcycles_per_s %.4f, setup_s %.4f",
			res.rawP50, quantile(cpu, q), cycles/cpuNs*1e3, quantile(setup, 0.5)),
		fmt.Sprintf("wall clock, unscaled: run_ms_p50 %.4f ms, run_ms_tail %.4f ms, sim_mcycles_per_s %.4f, setup_s %.4f",
			quantile(wall, 0.5), quantile(wall, q), cycles/wallNs*1e3, quantile(setupWall, 0.5)),
		fmt.Sprintf("leak_mb_per_run = %.3f MB, leak_goroutines_per_run = %.2f (median over %d workers of %d simulations each)",
			quantile(leakMB, 0.5), quantile(leakGor, 0.5), len(leakMB), outs[0].req.Sims+1),
	}
	return res
}
