package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestKillParkedProcess: a process killed while parked in Sleep,
// Signal.Wait or Resource.Acquire never runs another statement, its
// Done fires at once, and wake-ups aimed at it pass to the next living
// waiter.
func TestKillParkedProcess(t *testing.T) {
	e := NewEngine()
	sig := NewSignal(e)
	res := NewResource(e, 1)
	ranAfterPark := map[string]bool{}
	var order []string

	sleeper := e.Spawn("sleeper", func(p *Process) {
		p.Sleep(100)
		ranAfterPark["sleeper"] = true
	})
	waiterA := e.Spawn("waiterA", func(p *Process) {
		sig.Wait(p)
		ranAfterPark["waiterA"] = true
	})
	e.Spawn("waiterB", func(p *Process) {
		sig.Wait(p)
		order = append(order, "waiterB")
	})
	e.Spawn("holder", func(p *Process) {
		res.Acquire(p, 1)
		p.Sleep(20)
		res.Release(1)
	})
	acqA := e.Spawn("acquirerA", func(p *Process) {
		p.Sleep(1)
		res.Acquire(p, 1)
		ranAfterPark["acquirerA"] = true
	})
	e.Spawn("acquirerB", func(p *Process) {
		p.Sleep(2)
		res.Acquire(p, 1)
		order = append(order, "acquirerB")
		res.Release(1)
	})
	joined := Time(0)
	e.Spawn("joiner", func(p *Process) {
		p.Join(sleeper)
		joined = p.Now()
	})

	e.Schedule(10, func() {
		live := e.LiveProcesses()
		for _, v := range []*Process{sleeper, waiterA, acqA} {
			v.Kill()
		}
		if got := e.LiveProcesses(); got != live-3 {
			t.Errorf("LiveProcesses after three kills = %d, want %d", got, live-3)
		}
		if !sleeper.Dead() || !sleeper.Killed() {
			t.Error("killed sleeper must report Dead and Killed")
		}
		sleeper.Kill() // killing a corpse is a no-op
		if got := e.LiveProcesses(); got != live-3 {
			t.Errorf("second Kill changed LiveProcesses to %d", got)
		}
	})
	e.Schedule(12, func() { sig.Notify() })
	e.Run()

	for name, ran := range ranAfterPark {
		if ran {
			t.Errorf("%s ran a statement after it was killed", name)
		}
	}
	if joined != 10 {
		t.Errorf("Done of the killed sleeper fired at %d, want 10", joined)
	}
	if want := "waiterB acquirerB"; strings.Join(order, " ") != want {
		t.Errorf("survivors ran as %q, want %q", strings.Join(order, " "), want)
	}
	if res.InUse() != 0 || res.QueueLen() != 0 {
		t.Errorf("resource left with %d in use, %d queued", res.InUse(), res.QueueLen())
	}
	if e.LiveProcesses() != 0 || e.Deadlocked() {
		t.Errorf("LiveProcesses = %d, Deadlocked = %v; want 0, false", e.LiveProcesses(), e.Deadlocked())
	}

	// A process cannot kill itself: the panic leaves the body and is
	// recoverable around Run.
	e = NewEngine()
	e.Spawn("suicide", func(p *Process) { p.Kill() })
	if r, _ := runRecover(e).(string); !strings.Contains(r, "Kill of the running process") {
		t.Fatalf("recovered %q, want the Kill-of-running-process panic", r)
	}
}

// runRecover runs e to completion and returns what a process body
// panicked with, or nil.
func runRecover(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestProcessPanicPropagates: a panic inside a process body reaches the
// caller of Run with its value intact.
func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Process) {
		p.Sleep(3)
		panic("x")
	})
	if r := runRecover(e); r != "x" {
		t.Fatalf("recovered %v, want \"x\"", r)
	}
	if e.Now() != 3 {
		t.Fatalf("panic surfaced at cycle %d, want 3", e.Now())
	}
}

// TestSleepSwitchAllocFree: a steady-state Sleep is one engine->process
// ->engine switch and must not allocate. Mallocs are counted over many
// switches inside one RunUntil so no harness overhead is included,
// after one lap of the calendar wheel has given every bucket its
// backing array.
func TestSleepSwitchAllocFree(t *testing.T) {
	const warm, switches = wheelSize, 10000
	e := NewEngine()
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < warm+switches; i++ {
			p.Sleep(1)
		}
	})
	e.RunUntil(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(warm + switches)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > switches/100 {
		t.Fatalf("%d mallocs over %d Sleep switches, want none", n, switches)
	}
	if e.Run(); e.LiveProcesses() != 0 {
		t.Fatal("sleeper did not finish")
	}
}

// BenchmarkProcessSwitch: one op is a steady-state Sleep(1), i.e. one
// engine->process->engine switch, all inside a single RunUntil.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.RunUntil(0)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(b.N))
	b.StopTimer()
	if e.LiveProcesses() != 0 {
		b.Fatal("sleeper did not finish")
	}
}

// BenchmarkSignalPingPong: one op is a Notify/Wait round trip between
// two processes, i.e. two switches.
func BenchmarkSignalPingPong(b *testing.B) {
	e := NewEngine()
	ping, pong := NewSignal(e), NewSignal(e)
	e.Spawn("pong", func(p *Process) {
		p.SetDaemon()
		for {
			ping.Wait(p)
			pong.Notify()
		}
	})
	e.Spawn("ping", func(p *Process) {
		for i := 0; i < b.N; i++ {
			ping.Notify()
			pong.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if e.Deadlocked() {
		b.Fatal("ping-pong deadlocked")
	}
}
