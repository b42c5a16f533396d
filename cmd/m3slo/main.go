// Command m3slo is the critical-path attribution and SLO reporter: it
// runs a named workload with the structured tracer wired into the
// streaming critical-path engine (internal/obs/critpath.go), registers
// the standard end-to-end objectives, and reports where each request's
// latency went — app compute, DTU queueing/credit stalls, NoC wire
// time, kernel service, retransmit/backoff, overload shed — at p50,
// p99 and p99.9, with worst-N exemplar span trees and the SLO
// burn-rate table.
//
// The report is deterministic: identical (workload, flags) runs
// produce byte-identical output, including -json. Exemplar SpanIDs
// pair with `m3trace -span` to drill into the exact p99 request.
//
// Usage:
//
//	m3slo -w tar
//	m3slo -w find -json find-slo.json
//	m3slo -w tar -folded tar-blame.folded
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Standard objective names (package constants: m3vet sloname).
const (
	// sloTail: the p99-style latency objective over completed requests.
	sloTail = "e2e_latency"
	// sloAvail: the availability objective over completed requests.
	sloAvail = "e2e_availability"
)

// reportSchema versions the -json layout.
const reportSchema = 1

type blameJSON struct {
	Category string `json:"category"`
	Cycles   uint64 `json:"cycles"`
}

type quantileJSON struct {
	Q       float64     `json:"q"`
	Span    uint64      `json:"span"`
	Kind    string      `json:"kind"`
	Latency uint64      `json:"latency_cycles"`
	Fail    bool        `json:"fail"`
	Blame   []blameJSON `json:"blame"`
}

type exemplarJSON struct {
	Span      uint64   `json:"span"`
	Kind      string   `json:"kind"`
	Latency   uint64   `json:"latency_cycles"`
	Fail      bool     `json:"fail"`
	Truncated bool     `json:"truncated"`
	Tree      []string `json:"tree"`
}

type sloJSON struct {
	Name        string  `json:"name"`
	Objective   float64 `json:"objective"`
	Good        uint64  `json:"good"`
	Total       uint64  `json:"total"`
	BurnLong    float64 `json:"burn_long"`
	BurnShort   float64 `json:"burn_short"`
	Transitions uint64  `json:"transitions"`
	State       string  `json:"state"`
}

type reportJSON struct {
	Schema    int            `json:"schema"`
	Workload  string         `json:"workload"`
	Completed uint64         `json:"completed"`
	Failed    uint64         `json:"failed"`
	Evicted   uint64         `json:"evicted"`
	Truncated uint64         `json:"truncated"`
	Total     []blameJSON    `json:"total_blame"`
	Quantiles []quantileJSON `json:"quantiles"`
	Exemplars []exemplarJSON `json:"exemplars"`
	SLOs      []sloJSON      `json:"slos"`
}

func blameList(v obs.BlameVec) []blameJSON {
	out := make([]blameJSON, 0, obs.NumBlame)
	for cat := obs.BlameCat(0); cat < obs.NumBlame; cat++ {
		out = append(out, blameJSON{Category: cat.String(), Cycles: v[cat]})
	}
	return out
}

func main() {
	name := flag.String("w", "tar", "workload: cat+tr, tar, untar, find, sqlite")
	pes := flag.Int("pes", 0, "extra application PEs beyond what the workload needs")
	exemplars := flag.Int("exemplars", 4, "worst-N exemplar span trees to capture")
	bound := flag.Uint64("bound", 1<<17, "latency objective bound in cycles")
	jsonOut := flag.String("json", "", "write the machine-readable report to this file ('-' for stdout)")
	folded := flag.String("folded", "", "write folded blame stacks (flamegraph.pl format, m3prof-compatible) to this file")
	flag.Parse()

	b, err := workload.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}

	slos := obs.NewSLOSet()
	slos.Objective(sloTail, obs.SLOConfig{
		Objective: 0.99, LatencyBound: sim.Time(*bound), Window: 1 << 20})
	slos.Objective(sloAvail, obs.SLOConfig{Objective: 0.999, Window: 1 << 20})
	cp := obs.NewCritPath(obs.CritPathOptions{Exemplars: *exemplars, SLO: slos})
	_, st, err := bench.RunM3Stats(b, bench.M3Options{ExtraPEs: *pes, Obs: obs.New(obs.Options{Sink: cp.Consume})})
	if err != nil {
		log.Fatal(err)
	}
	end := st.FinalTime

	qs := []float64{0.5, 0.99, 0.999}
	rep := cp.ReportAt(qs)

	out := reportJSON{
		Schema: reportSchema, Workload: b.Name,
		Completed: rep.Completed, Failed: rep.Failed,
		Evicted: rep.Evicted, Truncated: rep.Truncated,
		Total: blameList(rep.Total),
	}
	for _, q := range rep.Quantiles {
		out.Quantiles = append(out.Quantiles, quantileJSON{
			Q: q.Q, Span: uint64(q.Span), Kind: q.Kind,
			Latency: q.Latency, Fail: q.Fail, Blame: blameList(q.Blame),
		})
	}
	for _, ex := range rep.Exemplars {
		ej := exemplarJSON{
			Span: uint64(ex.Span), Kind: ex.Kind.String(),
			Latency: uint64(ex.Latency()), Fail: ex.Fail, Truncated: ex.Truncated,
		}
		for _, ev := range ex.Events {
			ej.Tree = append(ej.Tree, ev.String())
		}
		out.Exemplars = append(out.Exemplars, ej)
	}
	for _, o := range slos.All() {
		long, short := o.BurnRates()
		good, total := o.Counts()
		out.SLOs = append(out.SLOs, sloJSON{
			Name: o.Name(), Objective: o.Config().Objective,
			Good: good, Total: total, BurnLong: long, BurnShort: short,
			Transitions: o.Transitions(), State: o.State().String(),
		})
	}

	printText(os.Stdout, b.Name, end, rep, out)

	if *folded != "" {
		f, err := os.Create(*folded)
		if err != nil {
			log.Fatal(err)
		}
		if err := cp.WriteFolded(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote folded blame stacks -> %s\n", *folded)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			if _, err := os.Stdout.Write(data); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote %s\n", *jsonOut)
		}
	}
}

func printText(w *os.File, name string, end sim.Time, rep obs.Report, out reportJSON) {
	fmt.Fprintf(w, "workload %s: %d cycles simulated, %d requests (%d failed, %d evicted, %d truncated)\n",
		name, end, rep.Completed, rep.Failed, rep.Evicted, rep.Truncated)

	fmt.Fprintln(w, "  aggregate blame (all completed requests):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	total := rep.Total.Total()
	fmt.Fprintln(tw, "  category\tcycles\tshare")
	for cat := obs.BlameCat(0); cat < obs.NumBlame; cat++ {
		share := 0.0
		if total > 0 {
			share = 100 * float64(rep.Total[cat]) / float64(total)
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f%%\n", cat, rep.Total[cat], share)
	}
	tw.Flush()

	fmt.Fprintln(w, "  per-quantile blame (the request at each quantile):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  q\tspan\tkind\tlatency\tapp\tqueue\tnoc\tkernel\tretry\tshed")
	for _, q := range rep.Quantiles {
		fmt.Fprintf(tw, "  p%g\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			q.Q*100, q.Span, q.Kind, q.Latency,
			q.Blame[obs.BlameApp], q.Blame[obs.BlameQueue], q.Blame[obs.BlameNoC],
			q.Blame[obs.BlameKernel], q.Blame[obs.BlameRetry], q.Blame[obs.BlameShed])
	}
	tw.Flush()

	fmt.Fprintln(w, "  worst exemplars (drill in with m3trace export -span <id> -text):")
	for _, ex := range out.Exemplars {
		fmt.Fprintf(w, "    span %d: %s, %d cycles, %d events (fail=%v)\n",
			ex.Span, ex.Kind, ex.Latency, len(ex.Tree), ex.Fail)
	}

	fmt.Fprintln(w, "  objectives:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  slo\tobjective\tgood/total\tburn(long)\tburn(short)\tstate")
	for _, o := range out.SLOs {
		fmt.Fprintf(tw, "  %s\t%g\t%d/%d\t%.3f\t%.3f\t%s\n",
			o.Name, o.Objective, o.Good, o.Total, o.BurnLong, o.BurnShort, o.State)
	}
	tw.Flush()
}
