// Package sim provides a deterministic, process-based discrete-event
// simulation engine. It is the substrate on which the hardware models
// (NoC, DRAM, DTU, PEs) and all simulated software run.
//
// The engine advances a cycle-granular clock and executes events in
// (time, sequence) order, so a given configuration always produces the
// same schedule. Simulated activities are either plain callbacks or
// processes: goroutines that run in strict hand-off with the engine —
// at most one goroutine (the engine or a single process) executes at any
// moment, which makes the simulation deterministic despite using
// goroutines for control flow.
//
// Pending events live in an O(1) calendar queue (calendar.go). The
// determinism contract is enforced by the differential witness golden
// in internal/bench: every observable byte of every tier-1 workload
// run is pinned to a committed file.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulated time stamp, measured in cycles.
type Time uint64

// event is a scheduled callback. Events are engine-pooled: Schedule
// takes one from the freelist and step returns it zeroed, so the
// steady-state hot path allocates nothing per event.
type event struct {
	//m3vet:resolve sharedstate owner events are created, executed and pooled on the engine goroutine only
	at Time
	//m3vet:resolve sharedstate owner written once at Schedule time on the engine goroutine
	seq uint64
	//m3vet:resolve sharedstate owner written at Schedule and zeroed at pool return, both engine-side
	fn func()
	// next links the engine freelist.
	//m3vet:resolve sharedstate owner freelist links are only touched by the engine's pool get/put
	next *event
}

// Config is the engine configuration. It has no fields: there is one
// engine. It is kept so that callers written against NewEngineWith
// still compile.
type Config struct{}

// Engine owns the simulated clock and the event queue.
//
// All interaction with an Engine must happen from simulation context:
// either from inside a callback scheduled on it or from a process spawned
// on it. The zero value is not usable; call NewEngine.
type Engine struct {
	now Time
	//m3vet:resolve sharedstate owner bumped by Schedule, which runs on the engine goroutine or under its strict hand-off
	seq uint64
	//m3vet:resolve sharedstate owner the event queue is pushed and popped on the engine goroutine only
	queue *calendarQueue
	//m3vet:resolve sharedstate owner event pool mutated by engine-side Schedule and step only
	free *event

	//m3vet:resolve sharedstate owner strict hand-off: set by the engine before waking a process
	current *Process

	//m3vet:resolve sharedstate owner process accounting happens in Spawn and process exit, engine-side
	liveProcs int
	//m3vet:resolve sharedstate owner process accounting happens in Spawn and process exit, engine-side
	daemonProcs int
	executed    uint64
	// flushed tracks how much of executed has been folded into the
	// process-wide TotalExecutedEvents aggregate (host-side wall-speed
	// accounting, not simulation state).
	flushed    uint64
	deadlocked bool
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	return &Engine{queue: newCalendarQueue()}
}

// NewEngineWith is NewEngine; Config carries no options.
func NewEngineWith(Config) *Engine { return NewEngine() }

// Now returns the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// ExecutedEvents returns the number of events executed so far, a cheap
// progress and determinism metric.
func (e *Engine) ExecutedEvents() uint64 { return e.executed }

// alloc takes an event from the freelist (or the heap on a cold
// start), stamps it with the next sequence number, and fills it.
func (e *Engine) alloc(at Time, fn func()) *event {
	ev := e.free
	if ev == nil {
		ev = &event{}
	} else {
		e.free = ev.next
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.next = at, e.seq, fn, nil
	return ev
}

// release zeroes an executed event (pool hygiene: no stale callbacks
// survive on the freelist) and returns it to the pool.
func (e *Engine) release(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// Schedule registers fn to run after delay cycles. Callbacks run in the
// engine's goroutine and must not block; to model blocking behaviour use
// a Process.
//
// Scheduling onto a deadlocked engine (see Deadlocked) panics: any new
// event could resume a process that the finished run left parked, and
// that run already reported it as stuck forever. A panic names the bug
// instead of silently reviving it.
func (e *Engine) Schedule(delay Time, fn func()) {
	if e.deadlocked {
		panic(fmt.Sprintf("sim: Schedule on deadlocked engine (%d processes parked forever)", e.liveProcs))
	}
	e.queue.push(e.alloc(e.now+delay, fn))
}

// Pending reports whether any events remain queued.
func (e *Engine) Pending() bool { return e.queue.len() > 0 }

// LiveProcesses returns the number of spawned processes that have not
// yet returned. Processes blocked forever (e.g. a server loop waiting
// for requests after the workload finished) keep this non-zero without
// keeping the event queue non-empty.
func (e *Engine) LiveProcesses() int { return e.liveProcs }

// Run executes events until the queue is empty and returns the final
// simulated time.
//
// If live processes remain when the queue drains, they are parked
// forever: events are the only wake source, so no future step can
// resume them. For daemon processes (server loops — m3fs, DTU request
// servers, the kernel dispatcher — marked via Process.SetDaemon) that
// is the expected end state of every run. Any *non-daemon* process
// parked forever is a genuine deadlock: a client stuck waiting for a
// message that will never come. Run records that as a deadlock — a
// state in which scheduling new work is a bug; see Schedule.
//
// A panic in a process body propagates out of Run and RunUntil.
func (e *Engine) Run() Time {
	for e.queue.len() > 0 {
		e.step()
	}
	e.flushExecuted()
	if e.liveProcs > e.daemonProcs {
		e.deadlocked = true
	}
	return e.now
}

// totalExecuted aggregates executed-event counts across every engine
// in the process. It exists purely for host-side wall-speed reporting
// (events_per_sec_wall in the bench witness trajectory) and never
// feeds back into simulation state.
var totalExecuted atomic.Uint64

// TotalExecutedEvents returns the process-wide number of executed
// events across all engines whose Run/RunUntil calls have completed.
// Harnesses diff it around a run to report simulator wall-speed.
func TotalExecutedEvents() uint64 { return totalExecuted.Load() }

// flushExecuted folds this engine's executed-event delta into the
// process-wide aggregate. Called once per Run/RunUntil completion, so
// the per-event hot path pays nothing.
func (e *Engine) flushExecuted() {
	if d := e.executed - e.flushed; d > 0 {
		e.flushed = e.executed
		totalExecuted.Add(d)
	}
}

// Deadlocked reports whether a completed Run left non-daemon
// processes parked forever. The chaos tests use this as the liveness
// assertion: injected faults must never wedge a surviving client.
func (e *Engine) Deadlocked() bool { return e.deadlocked }

// RunUntil executes events with time stamps <= limit. Events scheduled
// later remain queued. It returns the current time after the last
// executed event.
func (e *Engine) RunUntil(limit Time) Time {
	for {
		nx := e.queue.peek()
		if nx == nil || nx.at > limit {
			break
		}
		e.step()
	}
	e.flushExecuted()
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

func (e *Engine) step() {
	ev := e.queue.pop()
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%d < %d)", ev.at, e.now))
	}
	e.now = ev.at
	fn := ev.fn
	e.release(ev)
	e.executed++
	fn()
}

// resume hands control to p and blocks the engine until p yields or
// returns.
func (e *Engine) resume(p *Process) {
	if p.dead {
		return
	}
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
}
