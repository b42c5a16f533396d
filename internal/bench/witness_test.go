package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

var updateWitness = flag.Bool("update-witness", false, "rewrite testdata/witness.golden")

// TestDifferentialWitnessGolden pins the full differential witness —
// engine statistics, structured event stream, metrics snapshot and per-instance outcomes — of every tier-1 workload, on a
// lossless and on a lossy fault plan, to a committed golden file. Any
// change to the engine or the model that moves a single observable
// byte fails here; rerun with -update-witness only after confirming
// the change is meant to alter simulated behaviour.
func TestDifferentialWitnessGolden(t *testing.T) {
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"lossless", fault.Plan{Seed: chaosSeed}},
		{"lossy", differentialPlan()},
	}
	var got bytes.Buffer
	for _, b := range workload.All() {
		for _, p := range plans {
			w, err := RunDifferential(b, 2, p.plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, p.name, err)
			}
			if w.Stats.ExecutedEvents == 0 || w.ObsEvents == 0 {
				t.Fatalf("%s/%s: empty witness, harness broken: %v", b.Name, p.name, w)
			}
			fmt.Fprintf(&got, "%s %s %v\n", b.Name, p.name, w)
		}
	}
	path := filepath.Join("testdata", "witness.golden")
	if *updateWitness {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/bench -run TestDifferentialWitnessGolden -update-witness` to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("differential witness differs from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// differentialPlan is the lossy fault plan of the differential runs: a
// dropping, corrupting NoC. It exercises retransmission, NACKs, and
// the asynchronous control traffic a lossless model never sends.
func differentialPlan() fault.Plan {
	return fault.Plan{Seed: chaosSeed, DropRate: 0.01, CorruptRate: 0.002}
}

// TestDifferentialRunIsDeterministic: one workload, run twice, must
// witness-match itself — the precondition for the golden file to mean
// anything.
func TestDifferentialRunIsDeterministic(t *testing.T) {
	b, err := workload.ByName("cat+tr")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunDifferential(b, 2, differentialPlan())
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunDifferential(b, 2, differentialPlan())
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("differential run not self-deterministic:\n  1st: %v\n  2nd: %v", a, c)
	}
}
