package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Tests for the machine-readable bench output: JSON byte-determinism
// (the acceptance witness), the regression gate's pass/fail behaviour,
// and the sampler's zero-overhead contract.

// witnessJSON runs the determinism witness and serializes it.
func witnessJSON(t *testing.T) []byte {
	t.Helper()
	exp, err := RunWitness()
	if err != nil {
		t.Fatal(err)
	}
	f := &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{exp}}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchJSONDeterministic: three witness runs must serialize to
// byte-identical JSON — no map ordering, no nondeterministic hashes,
// and no wall-clock fields.
func TestBenchJSONDeterministic(t *testing.T) {
	first := witnessJSON(t)
	if len(first) == 0 || !bytes.Contains(first, []byte(`"schema": 1`)) {
		t.Fatalf("unexpected witness JSON:\n%s", first)
	}
	for i := 0; i < 2; i++ {
		if next := witnessJSON(t); !bytes.Equal(first, next) {
			t.Fatalf("witness run %d serialized differently:\n%s\nvs\n%s", i+2, next, first)
		}
	}
}

// TestMetricsSnapshotDeterministic: the registry snapshot — the unit
// the witness hashes — is byte-identical across runs of one workload.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	snap := func() string {
		tr := obs.New(obs.Options{})
		if _, _, err := RunM3Stats(b, M3Options{Obs: tr, SampleEvery: 4096}); err != nil {
			t.Fatal(err)
		}
		return tr.Metrics().Snapshot()
	}
	s1 := snap()
	if !strings.Contains(s1, "counter kernel_syscalls_total ") ||
		!strings.Contains(s1, "series dtu_rx_queued[0] ") {
		t.Fatalf("snapshot missing expected metrics:\n%s", s1)
	}
	for i := 0; i < 2; i++ {
		if s2 := snap(); s2 != s1 {
			t.Fatalf("snapshot %d differs:\n%s\nvs\n%s", i+2, s2, s1)
		}
	}
}

// TestSamplerOffBitIdentical: with the sampler off (the default), a
// run with the full metrics instrumentation registered must execute
// the exact event schedule of a run with no tracer at all — same
// RunStats, same legacy trace stream.
func TestSamplerOffBitIdentical(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *obs.Tracer) (RunStats, uint64) {
		h := fnv.New64a()
		opt := M3Options{Obs: tr, Tracer: func(at sim.Time, source, event string) {
			fmt.Fprintf(h, "%d %s %s\n", at, source, event)
		}}
		_, st, err := RunM3Stats(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st, h.Sum64()
	}
	baseSt, baseHash := run(nil)
	obsSt, obsHash := run(obs.New(obs.Options{}))
	if obsSt != baseSt {
		t.Fatalf("metrics instrumentation changed the run: %+v vs baseline %+v", obsSt, baseSt)
	}
	if obsHash != baseHash {
		t.Fatalf("metrics instrumentation perturbed the legacy trace: %#x vs %#x", obsHash, baseHash)
	}
}

// TestSamplerOnLeavesTraceIntact: the sampler adds its own tick events
// (RunStats may differ) but must never reorder or change the
// simulation's own schedule — the legacy trace stream stays identical.
func TestSamplerOnLeavesTraceIntact(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	trace := func(every sim.Time) uint64 {
		h := fnv.New64a()
		opt := M3Options{
			Obs:         obs.New(obs.Options{}),
			SampleEvery: every,
			Tracer: func(at sim.Time, source, event string) {
				fmt.Fprintf(h, "%d %s %s\n", at, source, event)
			},
		}
		if _, _, err := RunM3Stats(b, opt); err != nil {
			t.Fatal(err)
		}
		return h.Sum64()
	}
	if off, on := trace(0), trace(4096); off != on {
		t.Fatalf("sampler perturbed the legacy trace: %#x vs %#x", on, off)
	}
}

func sampleFile() *BenchFile {
	return &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{{
		Name: "fig5",
		Metrics: []BenchMetric{
			{Name: "fig5/tar+M3/total_cycles", Value: 1000, Unit: "cycles"},
			{Name: "fig5/tar+M3/os_cycles", Value: 200, Unit: "cycles"},
		},
	}, {
		Name: "witness",
		Metrics: []BenchMetric{
			{Name: "witness/obs_stream_hash", Unit: "info", Info: "aaaa"},
		},
	}}}
}

// TestDiffSelfTest is the -diff acceptance check: an unmodified
// baseline passes, an injected >=10% cycle regression fails.
func TestDiffSelfTest(t *testing.T) {
	old := sampleFile()
	if d := DiffBench(old, sampleFile()); d.Failed() {
		t.Fatalf("identical files diffed as regression: %v", d.Regressions)
	}
	reg := sampleFile()
	reg.Experiments[0].Metrics[0].Value = 1100 // +10% > 5% tolerance
	d := DiffBench(old, reg)
	if !d.Failed() {
		t.Fatal("10% cycle regression passed the 5% gate")
	}
	if len(d.Regressions) != 1 || !strings.Contains(d.Regressions[0].String(), "total_cycles") {
		t.Fatalf("unexpected regressions: %v", d.Regressions)
	}
	r := d.Regressions[0]
	if r.Exp != "fig5" || r.Old != 1000 || r.New != 1100 || r.Missing {
		t.Fatalf("regression fields: %+v", r)
	}
	// Headline names the metric and delta — the actionable error text.
	if h := d.Headline(0); !strings.Contains(h, "total_cycles") || !strings.Contains(h, "+10.0%") {
		t.Fatalf("headline = %q", h)
	}
}

// TestDiffTolerancesAndDirections: per-metric tolerance overrides,
// improvements pass with a note, info metrics never gate, missing
// metrics fail, new metrics are notes.
func TestDiffTolerancesAndDirections(t *testing.T) {
	old := sampleFile()
	old.Experiments[0].Metrics[0].Tol = 0.20

	within := sampleFile()
	within.Experiments[0].Metrics[0].Value = 1150 // +15% < 20% override
	if d := DiffBench(old, within); d.Failed() {
		t.Fatalf("regression within per-metric tolerance failed: %v", d.Regressions)
	}

	improved := sampleFile()
	improved.Experiments[0].Metrics[0].Value = 500
	d := DiffBench(old, improved)
	if d.Failed() {
		t.Fatalf("improvement failed the gate: %v", d.Regressions)
	}
	if len(d.Notes) == 0 || !strings.Contains(d.Notes[0], "improvement") {
		t.Fatalf("improvement not noted: %v", d.Notes)
	}

	infoChanged := sampleFile()
	infoChanged.Experiments[1].Metrics[0].Info = "bbbb"
	if d := DiffBench(sampleFile(), infoChanged); d.Failed() {
		t.Fatalf("info metric change failed the gate: %v", d.Regressions)
	}

	missing := sampleFile()
	missing.Experiments[0].Metrics = missing.Experiments[0].Metrics[:1]
	if d := DiffBench(sampleFile(), missing); !d.Failed() {
		t.Fatal("vanished metric passed the gate")
	}

	extra := sampleFile()
	extra.Experiments[0].Metrics = append(extra.Experiments[0].Metrics,
		BenchMetric{Name: "fig5/tar+M3/new_cycles", Value: 1, Unit: "cycles"})
	d = DiffBench(sampleFile(), extra)
	if d.Failed() {
		t.Fatalf("new metric failed the gate: %v", d.Regressions)
	}
	if len(d.Notes) == 0 || !strings.Contains(d.Notes[len(d.Notes)-1], "new metric") {
		t.Fatalf("new metric not noted: %v", d.Notes)
	}
}

// TestReadBenchJSONSchemaGate: -diff refuses files of another schema.
func TestReadBenchJSONSchemaGate(t *testing.T) {
	var buf bytes.Buffer
	f := sampleFile()
	f.Schema = BenchSchema + 1
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchJSON(buf.Bytes()); err == nil {
		t.Fatal("wrong-schema file parsed without error")
	}
	buf.Reset()
	if err := sampleFile().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != 2 || got.Experiments[0].Metrics[0].Value != 1000 {
		t.Fatalf("roundtrip mangled the file: %+v", got)
	}
}

// TestWriteJSONRejectsDuplicateKey: a bench file may not carry one
// exp:metric key twice — -diff would silently compare only the last.
func TestWriteJSONRejectsDuplicateKey(t *testing.T) {
	f := sampleFile()
	w := &f.Experiments[1]
	w.Metrics = append(w.Metrics, BenchMetric{Name: "witness/obs_stream_hash", Unit: "info", Info: "bbbb"})
	var buf bytes.Buffer
	err := f.WriteJSON(&buf)
	if err == nil || !strings.Contains(err.Error(), "witness:witness/obs_stream_hash") {
		t.Fatalf("duplicate key not rejected: err=%v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected file still wrote %d bytes", buf.Len())
	}
	// The same metric name under two experiments is two distinct keys.
	f = sampleFile()
	f.Experiments[1].Metrics = append(f.Experiments[1].Metrics, f.Experiments[0].Metrics[0])
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatalf("distinct keys rejected: %v", err)
	}
}

// TestExperimentFromTables: the generic CSV-to-metrics flattening.
func TestExperimentFromTables(t *testing.T) {
	tbl := &CSVTable{Name: "demo", Rows: [][]string{
		{"op", "system", "total_cycles", "ratio"},
		{"read", "m3", "123", "0.5"},
		{"write", "m3", "456", ""},
	}}
	exp := ExperimentFromTables("demo", []*CSVTable{tbl})
	want := []BenchMetric{
		{Name: "demo/read+m3/total_cycles", Value: 123, Unit: "cycles"},
		{Name: "demo/read+m3/ratio", Value: 0.5, Unit: "ratio"},
		{Name: "demo/write+m3/total_cycles", Value: 456, Unit: "cycles"},
	}
	if len(exp.Metrics) != len(want) {
		t.Fatalf("metrics = %+v, want %+v", exp.Metrics, want)
	}
	for i, m := range exp.Metrics {
		if m != want[i] {
			t.Fatalf("metric %d = %+v, want %+v", i, m, want[i])
		}
	}
}

// TestUtilizationSeries: the utilization experiment derives busy
// fractions from registry-sampled idle series, sorted by PE id.
func TestUtilizationSeries(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunUtilization(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.SampleEvery == 0 || len(r.PEs) == 0 {
		t.Fatalf("no sampled utilization: %+v", r)
	}
	for i, u := range r.PEs {
		if i > 0 && r.PEs[i-1].PE >= u.PE {
			t.Fatalf("PEs not sorted by id: %+v", r.PEs)
		}
		if u.Busy < 0 || u.Busy > 1 {
			t.Fatalf("pe%d busy fraction out of range: %v", u.PE, u.Busy)
		}
		if len(u.IdleSeries) == 0 {
			t.Fatalf("pe%d: empty idle series", u.PE)
		}
	}
	if r.Mean <= 0 || r.Mean > 1 {
		t.Fatalf("mean utilization out of range: %v", r.Mean)
	}
	// The series are cumulative idle cycles: non-decreasing.
	for _, u := range r.PEs {
		for i := 1; i < len(u.IdleSeries); i++ {
			if u.IdleSeries[i] < u.IdleSeries[i-1] {
				t.Fatalf("pe%d idle series decreases at %d: %v", u.PE, i, u.IdleSeries)
			}
		}
	}
}
