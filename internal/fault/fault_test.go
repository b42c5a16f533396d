package fault

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/m3"
	"repro/internal/sim"
	"repro/internal/tile"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"typical", Plan{Seed: 1, DropRate: 0.01, CorruptRate: 0.005,
			StallRate: 0.1, StallCycles: 100,
			Brownouts: []Window{{Start: 10, End: 20, ExtraLatency: 5}},
			Crashes:   []Crash{{PE: 2, At: 1000}}}, true},
		{"drop rate negative", Plan{DropRate: -0.1}, false},
		{"drop rate above one", Plan{DropRate: 1.5}, false},
		{"corrupt rate above one", Plan{CorruptRate: 1.5}, false},
		{"rates sum above one", Plan{DropRate: 0.6, CorruptRate: 0.6}, false},
		{"stall rate above one", Plan{StallRate: 2}, false},
		{"inverted brownout", Plan{Brownouts: []Window{{Start: 20, End: 10}}}, false},
		{"crash on kernel PE", Plan{Crashes: []Crash{{PE: 0, At: 100}}}, false},
		{"negative retries", Plan{MaxRetries: -1}, false},
		{"negative missed beats", Plan{MaxMissedBeats: -1}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid plan accepted", tc.name)
		}
	}
}

// Identical bytes must decode to the identical plan — the fuzzing
// front end is itself part of the deterministic pipeline.
func TestDecodePlanDeterministic(t *testing.T) {
	data := []byte{
		0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, // seed
		0x00, 0x40, 0x00, 0x20, 0x10, 0x00, 0x00, 0x80, // rates, stall
		0x00, 0x64, 0x03, // timeout, retries
		0x00, 0x10, // heartbeat
		0x02,                               // two brownouts
		0x00, 0x08, 0x00, 0x10, 0x00, 0x05, // window 1
		0x00, 0x20, 0x00, 0x08, 0x00, 0x09, // window 2
		0x01,             // one crash
		0x03, 0x00, 0x10, // PE 3 at 16*64
	}
	p1, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("decode differs: %+v vs %+v", p1, p2)
	}
	if len(p1.Crashes) != 1 || p1.Crashes[0].PE != 3 {
		t.Fatalf("unexpected crashes: %+v", p1.Crashes)
	}
	if p1.MaxRetries < dtu.DefaultMaxRetries {
		t.Fatalf("retry budget %d below default", p1.MaxRetries)
	}
	if p1.Timeout < dtu.DefaultTimeout {
		t.Fatalf("timeout %d below default", p1.Timeout)
	}
}

// A decoded crash targeting PE 0 must be rejected by Validate, and the
// caps must keep every accepted plan inside the survivable envelope.
func TestDecodePlanRejectsKernelCrash(t *testing.T) {
	data := make([]byte, 64)
	// Walk a crash count of 1 and PE 0 into the crash fields: bytes
	// 0..7 seed, 8..18 rates/timeout/retries, 19..20 heartbeat, 21
	// brownout count (0), 22 crash count, 23 crash PE.
	data[22] = 0x01
	data[23] = 0x00
	if _, err := DecodePlan(data); err == nil {
		t.Fatal("crash on PE 0 decoded without error")
	}
}

// Exhausted input yields zeros: a short buffer still decodes.
func TestDecodePlanShortInput(t *testing.T) {
	p, err := DecodePlan([]byte{0x01})
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 0 || len(p.Brownouts) != 0 || len(p.Crashes) != 0 {
		t.Fatalf("short input decoded to non-zero faults: %+v", p)
	}
	if p.MaxRetries < dtu.DefaultMaxRetries || p.Timeout < dtu.DefaultTimeout {
		t.Fatalf("short input weakened reliability floor: %+v", p)
	}
}

// The injector must own its plan: normalized() reheads the Brownouts
// and Crashes slices onto private arrays, so mutating the caller's
// slices after Attach cannot rewrite an armed schedule. (Regression
// test for an aliasing bug: the injector used to retain the caller's
// backing arrays.)
func TestNormalizedCopiesSlices(t *testing.T) {
	orig := Plan{
		Seed:      1,
		Brownouts: []Window{{Start: 10, End: 20, ExtraLatency: 5}},
		Crashes:   []Crash{{PE: 2, At: 1000}},
	}
	norm, err := orig.normalized()
	if err != nil {
		t.Fatal(err)
	}
	orig.Brownouts[0] = Window{Start: 999, End: 9999, ExtraLatency: 1}
	orig.Crashes[0] = Crash{PE: 3, At: 1}
	if norm.Brownouts[0] != (Window{Start: 10, End: 20, ExtraLatency: 5}) {
		t.Fatalf("brownout window aliased: %+v", norm.Brownouts[0])
	}
	if norm.Crashes[0] != (Crash{PE: 2, At: 1000}) {
		t.Fatalf("crash aliased: %+v", norm.Crashes[0])
	}
}

// normalized must fill every zero-valued knob with its package default
// and reject invalid plans outright.
func TestNormalizedDefaults(t *testing.T) {
	norm, err := Plan{Seed: 1}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.StallCycles != DefaultStallCycles ||
		norm.HeartbeatPeriod != DefaultHeartbeatPeriod ||
		norm.MaxMissedBeats != DefaultMaxMissedBeats ||
		norm.CallDeadline != DefaultCallDeadline {
		t.Fatalf("defaults not filled: %+v", norm)
	}
	if _, err := (Plan{DropRate: 2}).normalized(); err == nil {
		t.Fatal("invalid plan normalized without error")
	}
}

// stallPattern boots a three-PE machine with transfer stalls armed and
// reports which of PE A's n DRAM writes stalled while PE B issues
// bWrites writes of its own at the same time. A stall sleeps far
// longer than any contention B's traffic can add, so a write's
// duration says whether it stalled.
func stallPattern(t *testing.T, n, bWrites int) []bool {
	t.Helper()
	const stall = 1 << 20
	eng := sim.NewEngine()
	kern := core.Boot(tile.NewPlatform(eng, tile.Homogeneous(3)), 0)
	writer := func(writes int, record func(stalled bool)) core.Program {
		return func(ctx *tile.Ctx) {
			env := m3.NewEnv(ctx, kern)
			mg, err := env.ReqMem(4096, dtu.PermRW)
			if err != nil {
				t.Error(err)
				env.Exit(1)
				return
			}
			buf := make([]byte, 64)
			for i := 0; i < writes; i++ {
				start := ctx.Now()
				if err := mg.Write(buf, 0); err != nil {
					t.Error(err)
					break
				}
				if record != nil {
					record(ctx.Now()-start >= stall)
				}
			}
			env.Exit(0)
		}
	}
	var pattern []bool
	if _, err := kern.StartInit("a", "", writer(n, func(s bool) { pattern = append(pattern, s) })); err != nil {
		t.Fatal(err)
	}
	if _, err := kern.StartInit("b", "", writer(bWrites, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(kern, Plan{Seed: 7, StallRate: 0.5, StallCycles: stall}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(pattern) != n {
		t.Fatalf("PE A finished %d of %d writes", len(pattern), n)
	}
	return pattern
}

// Transfer-engine stalls are per-PE hardware behaviour: each PE draws
// from its own stream, so PE A's stall schedule must not depend on how
// much PE B transmits. A single stream shared by all PEs would shift
// A's draws by every transfer B makes in between.
func TestStallScheduleIndependentOfOtherPEs(t *testing.T) {
	quiet := stallPattern(t, 32, 0)
	busy := stallPattern(t, 32, 200)
	if !reflect.DeepEqual(quiet, busy) {
		t.Fatalf("PE A's stall schedule depends on PE B's traffic:\nB idle: %v\nB busy: %v", quiet, busy)
	}
	stalls := 0
	for _, s := range quiet {
		if s {
			stalls++
		}
	}
	if stalls == 0 || stalls == len(quiet) {
		t.Fatalf("degenerate schedule (%d of %d stalled): the test cannot tell streams apart", stalls, len(quiet))
	}
}
