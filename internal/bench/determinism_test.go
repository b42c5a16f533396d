package bench

import (
	"testing"

	"repro/internal/linuxos"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The whole stack — engine, NoC, DTUs, kernel, services, workloads —
// must be deterministic: identical configurations produce identical
// cycle counts. This is what makes the reproduction's numbers
// meaningful.

func TestM3RunDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunM3(b, M3Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := RunM3(b, M3Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d differs: %+v vs %+v", i+2, again, first)
		}
	}
}

// tracedRun executes one full workload with the structured tracer and
// the metrics sampler armed and returns the engine statistics plus the
// hash of the complete obs event stream.
func tracedRun(t *testing.T, b workload.Benchmark) (RunStats, uint64) {
	t.Helper()
	sh := newStreamHash()
	opt := M3Options{Obs: obs.New(obs.Options{Sink: sh.Consume}), SampleEvery: witnessSampleEvery}
	_, st, err := RunM3Stats(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st, sh.Sum64()
}

// TestTraceDeterministic is the runtime witness for the invariants
// m3vet enforces statically: two runs of the same mid-size workload
// must execute the identical event schedule — same event count, same
// final time, and the same hash over every obs event. A single
// unsorted map walk on a kernel path (e.g. reverting the sorted
// iteration in core/caps.go revokeAll, which reorders the EvCapRevoke
// events) perturbs the stream and makes this fail.
func TestTraceDeterministic(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	st1, h1 := tracedRun(t, b)
	if st1.ExecutedEvents == 0 {
		t.Fatal("run executed no events")
	}
	for i := 0; i < 2; i++ {
		st2, h2 := tracedRun(t, b)
		if st1 != st2 {
			t.Fatalf("run %d stats differ: %+v vs %+v", i+2, st2, st1)
		}
		if h1 != h2 {
			t.Fatalf("run %d trace hash differs: %#x vs %#x (same stats %+v — an order-only divergence)", i+2, h2, h1, st1)
		}
	}
}

func TestLxRunDeterministic(t *testing.T) {
	b, err := workload.ByName("untar")
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunLx(b, linuxos.ProfileXtensa, true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunLx(b, linuxos.ProfileXtensa, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("runs differ: %+v vs %+v", again, first)
	}
}

func TestInstancesDeterministic(t *testing.T) {
	b, err := workload.ByName("find")
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunM3Instances(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunM3Instances(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("instance runs differ: %d vs %d", first, again)
	}
}

func TestSyscallDeterministic(t *testing.T) {
	t1, x1 := NullSyscallM3()
	t2, x2 := NullSyscallM3()
	if t1 != t2 || x1 != x2 {
		t.Fatalf("syscall runs differ: (%d,%d) vs (%d,%d)", t1, x1, t2, x2)
	}
}
