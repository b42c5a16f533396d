package bench

import (
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The differential witness harness: a workload run with every
// observability stream armed is hashed, byte for byte, into a witness.
// Two runs are behaviourally identical exactly when their witnesses
// are equal. TestDifferentialWitnessGolden pins the witness of every
// tier-1 workload to a committed golden file, so any change that moves
// one observable byte of a run fails CI.

// DifferentialWitness condenses everything observable about one run.
// Two runs are behaviourally identical iff their witnesses are equal —
// the struct is comparable, so == is the whole equivalence check.
type DifferentialWitness struct {
	// Stats is the engine-level run witness: executed events and final
	// simulated time.
	Stats RunStats
	// ObsHash digests the structured event stream (fixed binary
	// encoding), MetricsHash the end-of-run metrics snapshot.
	ObsHash     uint64
	MetricsHash uint64
	// ObsEvents counts structured events (a hash collision shield and a
	// friendlier first diff signal).
	ObsEvents int
	// Outcomes summarizes every chaos instance: completion, error text,
	// and run timing.
	Outcomes string
}

// String renders the witness compactly for test failure output.
func (w DifferentialWitness) String() string {
	return fmt.Sprintf("events=%d final=%d obs=%016x(%d) metrics=%016x outcomes=%q",
		w.Stats.ExecutedEvents, w.Stats.FinalTime,
		w.ObsHash, w.ObsEvents, w.MetricsHash, w.Outcomes)
}

// streamHash is an obs sink that digests the fixed binary encoding of
// every event it consumes: the determinism witness of a run's event
// stream.
type streamHash struct {
	h   hash.Hash64
	n   int
	buf [obs.EncodedSize]byte
}

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

// Consume is the obs.Options Sink.
func (s *streamHash) Consume(ev obs.Event) {
	s.h.Write(ev.AppendBinary(s.buf[:0]))
	s.n++
}

// Sum64 returns the digest of the events consumed so far.
func (s *streamHash) Sum64() uint64 { return s.h.Sum64() }

// differentialSampleEvery keeps the metrics sampler armed during
// differential runs so sampler events participate in the witness too.
const differentialSampleEvery sim.Time = 4096

// RunDifferential executes n instances of b under the given fault plan,
// with every observability stream armed, and returns the run's
// witness. The fault plan matters: asynchronous control traffic (acks,
// nacks) only exists under fault injection, so a lossless run leaves
// the reliability layer untested.
func RunDifferential(b workload.Benchmark, n int, plan fault.Plan) (DifferentialWitness, error) {
	return RunDifferentialOverload(b, n, plan, nil)
}

// RunDifferentialOverload is RunDifferential with an overload policy
// armed on the system. Its point is the zero-overhead-when-off proof:
// an armed-but-idle policy (zero deadline, zero watermarks) must
// produce a witness bit-identical to a nil policy — not one extra
// event or metric (TestOverloadIdleBitIdentical).
func RunDifferentialOverload(b workload.Benchmark, n int, plan fault.Plan, ov *OverloadSpec) (DifferentialWitness, error) {
	var w DifferentialWitness
	sh := newStreamHash()
	tr := obs.New(obs.Options{Sink: sh.Consume})
	opt := M3Options{
		Obs:         tr,
		SampleEvery: differentialSampleEvery,
		Overload:    ov,
	}
	cr, err := RunM3Chaos(b, n, plan, opt)
	if err != nil {
		return w, err
	}
	w.Stats = cr.Stats
	w.ObsHash, w.ObsEvents = sh.Sum64(), sh.n
	mh := fnv.New64a()
	mh.Write([]byte(tr.Metrics().Snapshot()))
	w.MetricsHash = mh.Sum64()
	for i := range cr.Outcomes {
		o := &cr.Outcomes[i]
		errText := ""
		if o.Err != nil {
			errText = o.Err.Error()
		}
		w.Outcomes += fmt.Sprintf("%s fin=%v err=%q start=%d end=%d;",
			o.Name, o.Finished, errText, o.StartAt, o.EndAt)
	}
	return w, nil
}
