package sim

// Signal is a broadcast/wake-one condition for processes. Waiters are
// resumed in FIFO order, at the simulated time of the notification.
//
// Signals carry no payload; the usual pattern is a predicate re-check
// loop:
//
//	for !cond() {
//		sig.Wait(p)
//	}
type Signal struct {
	eng *Engine
	//m3vet:resolve sharedstate owner Wait and Broadcast run in process or engine context, one goroutine at a time under the strict hand-off
	waiters []*Process
}

// NewSignal returns a signal bound to eng.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Wait blocks p until the signal is notified.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Notify wakes the oldest living waiter, if any. The waiter resumes
// at the current simulated time, after already-queued events for this
// cycle. Dead waiters (killed while blocked) are skipped, not counted:
// a wake-one notification consumed by a corpse would be lost.
func (s *Signal) Notify() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = append(s.waiters[:0], s.waiters[1:]...)
		if w.dead {
			continue
		}
		s.eng.Schedule(0, w.wake)
		return
	}
}

// Broadcast wakes all current waiters in FIFO order.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = ws[:0] // Schedule only queues, so no Wait reuses ws yet
	for _, w := range ws {
		s.eng.Schedule(0, w.wake)
	}
}

// Waiters returns the number of processes currently blocked on the
// signal.
func (s *Signal) Waiters() int { return len(s.waiters) }
