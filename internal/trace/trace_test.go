package trace_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/linuxos"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/tile"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordOnLinux runs b's setup natively and records its run phase.
func recordOnLinux(t testing.TB, b workload.Benchmark) *trace.Trace {
	t.Helper()
	eng := sim.NewEngine()
	sys := linuxos.New(eng, linuxos.ProfileXtensa, false)
	var tr *trace.Trace
	sys.Spawn("rec", func(pr *linuxos.Proc) {
		os := workload.NewLxOS(sys, pr)
		if err := b.Setup(os); err != nil {
			t.Error(err)
			return
		}
		rec := trace.NewRecorder(os)
		if err := b.Run(rec); err != nil {
			t.Error(err)
			return
		}
		tr = rec.T
	})
	eng.Run()
	if tr == nil {
		t.Fatal("recording failed")
	}
	return tr
}

// timeOnM3 runs fn after b.Setup on a fresh M3 system and returns its
// duration.
func timeOnM3(t *testing.T, b workload.Benchmark, fn func(os workload.OS) error) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	plat := tile.NewPlatform(eng, tile.Homogeneous(2+b.PEs))
	kern := core.Boot(plat, 0)
	if _, err := kern.StartInit("m3fs", "", m3fs.Program(kern, m3fs.Config{}, nil)); err != nil {
		t.Fatal(err)
	}
	var took sim.Time
	_, err := kern.StartInit("app", "", func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		os, err := workload.NewM3OS(env)
		if err != nil {
			t.Error(err)
			return
		}
		if err := b.Setup(os); err != nil {
			t.Error(err)
			return
		}
		start := ctx.Now()
		if err := fn(os); err != nil {
			t.Error(err)
			return
		}
		took = ctx.Now() - start
		env.Exit(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return took
}

func TestReplayMatchesNativeRun(t *testing.T) {
	// The paper's methodology: record the benchmark's syscalls on
	// Linux, replay them on M3, and take the replay as the M3 result.
	// For that to be sound, replaying must cost about the same as
	// running natively on M3. tar avoids sendfile asymmetry by being
	// replayed with the read+write fallback — use find and sqlite,
	// whose operation streams are identical on both systems.
	for _, name := range []string{"find", "sqlite"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := recordOnLinux(t, b)
		if tr.Len() == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		native := timeOnM3(t, b, func(os workload.OS) error { return b.Run(os) })
		replayed := timeOnM3(t, b, func(os workload.OS) error { return trace.Replay(os, tr) })
		ratio := float64(replayed) / float64(native)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: replay %d vs native %d cycles (ratio %.2f), want within 10%%",
				name, replayed, native, ratio)
		}
	}
}

func TestReplayTarProducesArchive(t *testing.T) {
	b, err := workload.ByName("tar")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordOnLinux(t, b)
	_ = timeOnM3(t, b, func(os workload.OS) error {
		if err := trace.Replay(os, tr); err != nil {
			return err
		}
		st, err := os.Stat("/archive.tar")
		if err != nil {
			return err
		}
		if st.Size < 1<<20 {
			t.Errorf("replayed archive only %d bytes", st.Size)
		}
		return nil
	})
}

func TestMarshalRoundTrip(t *testing.T) {
	b, err := workload.ByName("find")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordOnLinux(t, b)
	data := tr.Marshal()
	back, err := trace.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost records: %d vs %d", back.Len(), tr.Len())
	}
	for i := range tr.Records {
		if tr.Records[i] != back.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, tr.Records[i], back.Records[i])
		}
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, paths []string, sizes []uint16) bool {
		tr := &trace.Trace{}
		for i, k := range kinds {
			r := trace.Record{
				Kind: trace.Kind(k%11 + 1),
				FD:   i,
			}
			if len(paths) > 0 {
				r.Path = paths[i%len(paths)]
			}
			if len(sizes) > 0 {
				r.Size = int(sizes[i%len(sizes)])
			}
			tr.Records = append(tr.Records, r)
		}
		back, err := trace.Unmarshal(tr.Marshal())
		if err != nil {
			return false
		}
		if back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Records {
			if tr.Records[i] != back.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := trace.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt trace must fail to decode")
	}
	tr := &trace.Trace{Records: []trace.Record{{Kind: trace.KCompute, Cycles: 5}}}
	data := tr.Marshal()
	if _, err := trace.Unmarshal(data[:len(data)-4]); err == nil {
		t.Fatal("truncated trace must fail to decode")
	}
}

// A header may not claim more records than the input can hold: an
// 8-byte input declaring 1<<24 records must fail without sizing a
// record slice from the claim.
func TestUnmarshalForgedCountAllocatesLittle(t *testing.T) {
	data := binary.LittleEndian.AppendUint64(nil, 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := trace.Unmarshal(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged record count must fail to decode")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding an 8-byte input allocated %d bytes", got)
	}
}

// Replay slices its buffer to a record's Size, so a negative size must
// be refused at decode time.
func TestUnmarshalRejectsNegativeSize(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{{Kind: trace.KRead, FD: 1, Size: -1}}}
	if _, err := trace.Unmarshal(tr.Marshal()); err == nil {
		t.Fatal("negative record size must fail to decode")
	}
}

// FuzzTraceUnmarshal feeds arbitrary bytes to the decoder behind
// `m3trace -i`: it must never panic, and whatever it accepts must
// survive a second encode/decode unchanged with no negative sizes.
func FuzzTraceUnmarshal(f *testing.F) {
	b, err := workload.ByName("find")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recordOnLinux(f, b).Marshal())
	f.Add((&trace.Trace{Records: []trace.Record{{Kind: trace.KWrite, FD: 1, Path: "/a", Size: 16}}}).Marshal())
	f.Add([]byte{})
	// One record whose path length overflows the read position.
	var forged []byte
	for _, v := range []uint64{1, 1, 0, 0, 1<<63 - 1, 0, 0, 0, 0, 0} {
		forged = binary.LittleEndian.AppendUint64(forged, v)
	}
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Unmarshal(data)
		if err != nil {
			return
		}
		for i, r := range tr.Records {
			if r.Size < 0 {
				t.Fatalf("record %d decoded with negative size %d", i, r.Size)
			}
		}
		back, err := trace.Unmarshal(tr.Marshal())
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(back.Records, tr.Records) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr.Records, back.Records)
		}
	})
}

func TestReplayUnknownFD(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{{Kind: trace.KRead, FD: 99, Size: 16}}}
	eng := sim.NewEngine()
	sys := linuxos.New(eng, linuxos.ProfileXtensa, false)
	var rerr error
	sys.Spawn("replay", func(pr *linuxos.Proc) {
		rerr = trace.Replay(workload.NewLxOS(sys, pr), tr)
	})
	eng.Run()
	if rerr == nil {
		t.Fatal("replay with unknown fd must fail")
	}
}

func TestRecorderRefusesPipes(t *testing.T) {
	eng := sim.NewEngine()
	sys := linuxos.New(eng, linuxos.ProfileXtensa, false)
	var gotErr bool
	sys.Spawn("rec", func(pr *linuxos.Proc) {
		rec := trace.NewRecorder(workload.NewLxOS(sys, pr))
		_, _, err := rec.PipeFromChild("x", func(workload.OS, workload.File) {})
		gotErr = err != nil
	})
	eng.Run()
	if !gotErr {
		t.Fatal("recording a pipe must fail")
	}
}

func TestReplaySeekAndMeta(t *testing.T) {
	// A hand-built trace covering seek, mkdir, readdir, stat, unlink —
	// replayed on both OS models.
	tr := &trace.Trace{Records: []trace.Record{
		{Kind: trace.KMkdir, Path: "/d"},
		{Kind: trace.KOpen, FD: 1, Path: "/d/f", Flags: workload.Write | workload.Create},
		{Kind: trace.KWrite, FD: 1, Size: 8192},
		{Kind: trace.KSeek, FD: 1, Off: 100, Whence: 0},
		{Kind: trace.KWrite, FD: 1, Size: 16},
		{Kind: trace.KClose, FD: 1},
		{Kind: trace.KStat, Path: "/d/f"},
		{Kind: trace.KReadDir, Path: "/d"},
		{Kind: trace.KCompute, Cycles: 1234},
		{Kind: trace.KUnlink, Path: "/d/f"},
	}}
	// Linux.
	eng := sim.NewEngine()
	sys := linuxos.New(eng, linuxos.ProfileXtensa, false)
	var lerr error
	sys.Spawn("replay", func(pr *linuxos.Proc) {
		lerr = trace.Replay(workload.NewLxOS(sys, pr), tr)
	})
	eng.Run()
	if lerr != nil {
		t.Fatalf("linux replay: %v", lerr)
	}
	// M3.
	b := workload.Benchmark{Name: "empty", PEs: 1,
		Setup: func(os workload.OS) error { return nil },
		Run:   func(os workload.OS) error { return nil }}
	took := timeOnM3(t, b, func(os workload.OS) error { return trace.Replay(os, tr) })
	if took < 1234 {
		t.Fatalf("m3 replay took %d cycles, must include the compute record", took)
	}
}

func TestKindStrings(t *testing.T) {
	if trace.KOpen.String() != "open" || trace.KCopyRange.String() != "copyrange" {
		t.Fatal("kind names broken")
	}
	if trace.Kind(200).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}
