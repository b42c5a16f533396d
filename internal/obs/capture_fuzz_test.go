package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzReadCaptureJSON hammers the run-capture decoder that m3diff and
// -diff attribution run on bench files. Any input either fails to
// decode or yields a capture that re-encodes byte-stably, answers
// quantile queries on every histogram, and diffs against itself as
// empty.
func FuzzReadCaptureJSON(f *testing.F) {
	data, err := os.ReadFile("../../BENCH_5.json")
	if err != nil {
		f.Fatal(err)
	}
	var bench struct {
		Captures []json.RawMessage `json:"captures"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		f.Fatal(err)
	}
	if len(bench.Captures) == 0 {
		f.Fatal("BENCH_5.json bundles no capture")
	}
	for _, c := range bench.Captures {
		f.Add([]byte(c))
	}
	f.Add([]byte(`{"schema":1,"workload":"w","hists":[{"name":"h","count":3,"buckets":[{"bit":99,"count":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCaptureJSON(data)
		if err != nil {
			return
		}
		for _, h := range c.Hists {
			h.Quantile(0.5)
			h.Quantile(0.99)
		}
		var w1, w2 bytes.Buffer
		if err := c.WriteJSON(&w1); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCaptureJSON(w1.Bytes())
		if err != nil {
			t.Fatalf("re-encoded capture does not decode: %v", err)
		}
		if err := again.WriteJSON(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("capture does not round-trip:\n%s\nvs\n%s", w1.Bytes(), w2.Bytes())
		}
		d, err := DiffCaptures(c, again)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Empty() {
			t.Fatalf("self-diff not empty: %s", d.Summary())
		}
	})
}
