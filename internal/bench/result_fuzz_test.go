package bench

import (
	"bytes"
	"os"
	"testing"
)

// FuzzReadBenchJSON hammers the bench-file decoder that -diff runs on
// committed baselines and CI artifacts. Any input either fails to
// decode or yields a file that re-encodes byte-stably (write, read,
// write gives the same bytes) and diffs against itself without a
// panic and without a missing metric. A file that carries one
// exp:metric key twice must be refused by both WriteJSON and
// DiffBench.
func FuzzReadBenchJSON(f *testing.F) {
	// Seeds: each experiment of the committed baseline on its own, and
	// the witness experiment with the first bundled capture. Small seeds
	// keep the fuzzer's minimization fast.
	data, err := os.ReadFile("../../BENCH_5.json")
	if err != nil {
		f.Fatal(err)
	}
	baseline, err := ReadBenchJSON(data)
	if err != nil {
		f.Fatal(err)
	}
	if len(baseline.Captures) == 0 {
		f.Fatal("BENCH_5.json bundles no capture")
	}
	for _, e := range baseline.Experiments {
		seed := &BenchFile{Schema: BenchSchema, Experiments: []BenchExperiment{e}}
		if e.Name == "witness" {
			seed.Captures = baseline.Captures[:1]
		}
		var buf bytes.Buffer
		if err := seed.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"schema":1,"experiments":[{"name":"a","metrics":[{"name":"m","unit":"cycles"},{"name":"m","unit":"cycles"}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		bf, err := ReadBenchJSON(data)
		if err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := bf.WriteJSON(&w1); err != nil {
			// Only a duplicate key makes WriteJSON refuse a file.
			if _, derr := DiffBench(bf, bf); derr == nil {
				t.Fatalf("DiffBench accepted a file WriteJSON refused (%v)", err)
			}
			return
		}
		again, err := ReadBenchJSON(w1.Bytes())
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		var w2 bytes.Buffer
		if err := again.WriteJSON(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("bench file does not round-trip:\n%s\nvs\n%s", w1.Bytes(), w2.Bytes())
		}
		d, err := DiffBench(bf, again)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Regressions {
			if r.Missing {
				t.Fatalf("self-diff lost a metric: %v", r)
			}
		}
	})
}
