//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a simulated thread of execution: an iter.Pull coroutine
// that runs in strict hand-off with the engine. Process methods that
// block (Sleep, Signal.Wait, Queue.Recv, Resource.Acquire) yield
// control back to the engine and are resumed by a later event.
//
// A Process must only be used from its own body (the function passed
// to Spawn). A panic in the body, or a runtime.Goexit such as
// t.FailNow, is re-raised by the engine out of Run or RunUntil to
// their caller.
type Process struct {
	eng  *Engine
	name string
	// next resumes the coroutine until it yields or returns; yield,
	// bound when the body first runs, parks it.
	//m3vet:resolve sharedstate owner set once at spawn time on the engine goroutine
	next func() (struct{}, bool)
	//m3vet:resolve sharedstate owner set once when the coroutine first runs, used only by its own body
	yield func(struct{}) bool
	// wake is the cached event callback that resumes the process, so
	// a blocking call schedules no new closure.
	//m3vet:resolve sharedstate owner set once at spawn time on the engine goroutine
	wake func()
	//m3vet:resolve sharedstate owner process lifecycle flags flip under the engine's strict hand-off
	dead bool
	//m3vet:resolve sharedstate owner process lifecycle flags flip under the engine's strict hand-off
	killed bool
	//m3vet:resolve sharedstate owner set once at spawn time on the engine goroutine
	daemon bool

	// done is signalled when the process function returns.
	//m3vet:resolve sharedstate owner assigned at spawn, signalled at process exit, both engine-side
	done *Signal
}

// Spawn creates a process named name and schedules it to start at the
// current simulated time. The function fn runs as a coroutine in
// hand-off with the engine; when fn returns the process terminates and
// its Done signal fires.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	p := &Process{eng: e, name: name, done: NewSignal(e)}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.dead = true
		e.liveProcs--
		if p.daemon {
			e.daemonProcs--
		}
		p.done.Broadcast()
	})
	p.wake = func() { e.resume(p) }
	e.liveProcs++
	e.Schedule(0, p.wake)
	return p
}

// Name returns the name given at Spawn time.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// Done returns a signal that fires when the process function returns.
// Another process can Join by waiting on it.
func (p *Process) Done() *Signal { return p.done }

// Dead reports whether the process function has returned or the
// process was killed.
func (p *Process) Dead() bool { return p.dead }

// Kill terminates a parked process without running the rest of its
// function: the simulated core stopped mid-instruction. The process
// counts as dead immediately — its Done signal fires and later resume
// attempts (a Signal broadcast, a Resource grant) are ignored. The
// coroutine is never resumed again and stays suspended at its last
// yield, leaked deliberately: a crashed PE's program counter never
// advances again, and the leak is bounded by the number of injected
// crashes.
//
// Kill must not target the currently running process — a program
// cannot crash itself between two of its own instructions here;
// schedule the kill as an engine event instead. Killing an
// already-dead process is a no-op.
//
// A corpse leaks no resource capacity: every Resource unit a process
// can hold across a blocking point is released by an event scheduled
// at acquire time (NoC link occupancy) or held by unkillable resident
// processes (the kernel CPU, the memory tile's ports), and parked
// acquirers that die in the queue are skipped by the resource's
// dead-waiter handling.
func (p *Process) Kill() {
	if p.dead {
		return
	}
	if p.eng.current == p {
		panic("sim: Kill of the running process; schedule the kill as an event")
	}
	p.killed = true
	p.dead = true
	p.eng.liveProcs--
	if p.daemon {
		p.eng.daemonProcs--
	}
	p.done.Broadcast()
}

// Killed reports whether the process was terminated by Kill rather
// than by returning.
func (p *Process) Killed() bool { return p.killed }

// SetDaemon marks the process as a forever-running server loop: a DTU
// request server, a memory-tile port worker, the kernel dispatcher,
// a service like m3fs. Daemons left parked when the event queue drains
// are the expected end state of a run, not a deadlock; see
// Engine.Deadlocked.
func (p *Process) SetDaemon() {
	if !p.daemon && !p.dead {
		p.daemon = true
		p.eng.daemonProcs++
	}
}

// park yields control to the engine; the process stays suspended
// until an event resumes it.
func (p *Process) park() { p.yield(struct{}{}) }

// Sleep advances the process's simulated time by d cycles. Other events
// run in the meantime.
func (p *Process) Sleep(d Time) {
	p.eng.Schedule(d, p.wake)
	p.park()
}

// Yield reschedules the process at the current time behind all events
// already queued for this cycle.
func (p *Process) Yield() { p.Sleep(0) }

// Join blocks until other has terminated. Joining a dead process
// returns immediately.
func (p *Process) Join(other *Process) {
	if other.dead {
		return
	}
	other.done.Wait(p)
}

func (p *Process) String() string {
	return fmt.Sprintf("proc(%s)", p.name)
}
