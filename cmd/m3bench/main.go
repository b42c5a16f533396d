// Command m3bench regenerates the paper's evaluation: every table and
// figure from §5, plus this repository's own experiments. Run it with
// -e all (default), -e smoke (the fast CI subset), or a comma-separated
// experiment list; -json writes the machine-readable result file and
// -diff compares two such files under the regression tolerances.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
)

// experiment is one entry of the registry: the single source of truth
// for the -e help text, the dispatch order, and the smoke subset.
type experiment struct {
	name string
	desc string
	// smoke marks the experiment as part of the fast CI subset
	// (`-e smoke`, wired into make bench-smoke).
	smoke bool
	// run executes the experiment, prints its human-readable report,
	// and returns the metric set for the JSON file.
	run func() (bench.BenchExperiment, error)
}

// experiments is the registry. Order is execution and JSON order.
var experiments = []experiment{
	{"fig3", "syscall + file-op microbenchmarks vs Linux", true, runFig3},
	{"sec52", "§5.2 OS-primitive cost table (Xtensa vs ARM)", false, runSec52},
	{"fig4", "extent-size sweep of read/write throughput", false, runFig4},
	{"fig5", "application benchmarks vs Linux", false, runFig5},
	{"fig6", "parallel instance scaling", false, runFig6},
	{"fig7", "FFT accelerator offload", false, runFig7},
	{"util", "§3.4 per-PE utilization trade-off", true, runUtil},
	{"efault", "completion time under packet loss", false, runEFault},
	{"erecover", "m3fs crash/restart availability sweep", false, runERecover},
	{"elat", "latency percentile tables", true, runELat},
	{"eload", "graceful degradation under open-loop overload", true, runELoad},
	{"etail", "critical-path blame at p50/p99 vs Linux", true, runETail},
	{"witness", "determinism witness: run stats + stream hashes", true, runWitness},
}

// expHelp renders the -e flag help from the registry.
func expHelp() string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return "experiments to run: all, smoke, or comma-separated of " + strings.Join(names, ",")
}

func main() {
	exps := flag.String("e", "all", expHelp())
	csv := flag.String("csv", "", "directory to additionally write CSV tables into")
	jsonOut := flag.String("json", "", "file to write the schema-versioned bench JSON into")
	capture := flag.Bool("capture", false, "bundle run captures (profile, metrics, histograms, blame) per experiment workload into the bench JSON, for -diff attribution")
	diff := flag.Bool("diff", false, "compare two bench JSON files: m3bench -diff old.json new.json; exits 1 on regression")
	report := flag.String("report", "", "with -diff: write the machine-readable attribution report (diff-report JSON) to this file")
	flag.Parse()
	csvDir = *csv

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "m3bench: -diff needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1), *report); err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	switch *exps {
	case "all":
		for _, e := range experiments {
			want[e.name] = true
		}
	case "smoke":
		for _, e := range experiments {
			if e.smoke {
				want[e.name] = true
			}
		}
	default:
		for _, name := range strings.Split(*exps, ",") {
			name = strings.TrimSpace(name)
			if !knownExperiment(name) {
				fmt.Fprintf(os.Stderr, "m3bench: unknown experiment %q (%s)\n", name, expHelp())
				os.Exit(2)
			}
			want[name] = true
		}
	}

	out := &bench.BenchFile{Schema: bench.BenchSchema}
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		start := time.Now()
		ev0 := sim.TotalExecutedEvents()
		exp, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		// Simulator wall-speed per experiment (ROADMAP item 2): an info
		// metric, so -diff reports it without ever gating on host speed.
		//m3vet:allow timetaint wall-clock speed is host-side reporting, never simulation state
		if dev := sim.TotalExecutedEvents() - ev0; dev > 0 && wall > 0 {
			exp.Metrics = append(exp.Metrics, bench.BenchMetric{
				Name:  e.name + "/events_per_sec_wall",
				Value: float64(dev) / wall.Seconds(),
				Unit:  "info",
			})
		}
		out.Experiments = append(out.Experiments, exp)
		fmt.Printf("  [%s took %.1fs wall clock]\n\n", e.name, wall.Seconds())
	}

	if *capture {
		var names []string
		for _, e := range experiments {
			if want[e.name] {
				names = append(names, e.name)
			}
		}
		caps, err := bench.CaptureAll(names, bench.CaptureRunOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: capture failed: %v\n", err)
			os.Exit(1)
		}
		out.Captures = caps
		for _, c := range caps {
			fmt.Printf("captured workload %s (%d profile paths, %d metrics, %d histograms)\n",
				c.Workload, len(c.Profile), len(c.Metrics), len(c.Hists))
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
			os.Exit(1)
		}
		if err := out.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			_ = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

func knownExperiment(name string) bool {
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}

// runDiff loads both files, gates on the comparison, and — when the
// gate is red — attributes every regression via the files' run
// captures (docs/OBSERVABILITY.md, "reading a red gate").
func runDiff(oldPath, newPath, reportPath string) error {
	load := func(path string) (*bench.BenchFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return bench.ReadBenchJSON(data)
	}
	oldFile, err := load(oldPath)
	if err != nil {
		return err
	}
	newFile, err := load(newPath)
	if err != nil {
		return err
	}
	d, err := bench.DiffBench(oldFile, newFile)
	if err != nil {
		return err
	}
	if err := d.Write(os.Stdout); err != nil {
		return err
	}
	rep, err := bench.Attribute(d, oldFile, newFile)
	if err != nil {
		return err
	}
	if d.Failed() {
		if err := rep.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			_ = f.Close()
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", reportPath, err)
		}
		fmt.Printf("wrote %s\n", reportPath)
	}
	if d.Failed() {
		return fmt.Errorf("regressed past tolerance: %s", d.Headline(8))
	}
	return nil
}
