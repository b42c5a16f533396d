package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// heapQueue is the reference event queue: a plain binary heap over
// (at, seq), the oracle the calendar queue is cross-checked against.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) len() int { return len(q.h) }

// drainCompare pops both queues empty, asserting identical (at, seq)
// order, and returns the number of events drained.
func drainCompare(t *testing.T, cal *calendarQueue, hp *heapQueue) int {
	t.Helper()
	n := 0
	for {
		a, b := cal.pop(), hp.pop()
		if (a == nil) != (b == nil) {
			t.Fatalf("drain %d: cal nil=%v heap nil=%v", n, a == nil, b == nil)
		}
		if a == nil {
			return n
		}
		if a.at != b.at || a.seq != b.seq {
			t.Fatalf("drain %d: cal (%d,%d) != heap (%d,%d)", n, a.at, a.seq, b.at, b.seq)
		}
		n++
	}
}

// TestCalendarMatchesHeap drives calendar and heap queues with an
// identical deterministic push/pop stream mixing same-cycle ties,
// near-future, overflow-horizon, and far-future delays, plus idle gaps
// that exercise the overflow fast-forward path.
func TestCalendarMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cal, hp := newCalendarQueue(), &heapQueue{}
		var now Time
		var seq uint64
		live := 0
		for op := 0; op < 5000; op++ {
			if rng.Intn(3) != 0 || live == 0 {
				var d Time
				switch rng.Intn(5) {
				case 0:
					d = 0 // same-cycle tie
				case 1:
					d = Time(rng.Intn(16))
				case 2:
					d = Time(rng.Intn(wheelSize)) // inside the wheel
				case 3:
					d = Time(wheelSize - 2 + rng.Intn(8)) // straddle the horizon
				case 4:
					d = Time(rng.Intn(20 * wheelSize)) // deep overflow
				}
				seq++
				cal.push(&event{at: now + d, seq: seq})
				hp.push(&event{at: now + d, seq: seq})
				live++
			} else {
				a, b := cal.pop(), hp.pop()
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("seed %d op %d: cal (%d,%d) != heap (%d,%d)",
						seed, op, a.at, a.seq, b.at, b.seq)
				}
				now = a.at
				live--
			}
			if cal.len() != hp.len() {
				t.Fatalf("seed %d op %d: len %d != %d", seed, op, cal.len(), hp.len())
			}
			pa, pb := cal.peek(), hp.peek()
			if (pa == nil) != (pb == nil) || (pa != nil && (pa.at != pb.at || pa.seq != pb.seq)) {
				t.Fatalf("seed %d op %d: peek mismatch", seed, op)
			}
		}
		drainCompare(t, cal, hp)
	}
}

// TestCalendarPeekDoesNotCommitCursor is the regression test for the
// subtle cursor bug: peeking a far event must not advance the cursor,
// because between engine run calls the host may legally schedule
// earlier than the peeked time (RunUntil bumps the clock past the last
// executed event) and those pushes must still sort first.
func TestCalendarPeekDoesNotCommitCursor(t *testing.T) {
	c := newCalendarQueue()
	c.push(&event{at: 50, seq: 1})
	if p := c.peek(); p.at != 50 {
		t.Fatalf("peek = %d, want 50", p.at)
	}
	// Host schedules earlier than the peeked event (legal: nothing at
	// 40 has been popped yet).
	c.push(&event{at: 40, seq: 2})
	if p := c.pop(); p.at != 40 || p.seq != 2 {
		t.Fatalf("pop = (%d,%d), want (40,2)", p.at, p.seq)
	}
	if p := c.pop(); p.at != 50 || p.seq != 1 {
		t.Fatalf("pop = (%d,%d), want (50,1)", p.at, p.seq)
	}
}

// TestCalendarOverflowMigrationOrder: overflow events destined for one
// cycle must land in its bucket in seq order, ahead of any later direct
// pushes to the same cycle.
func TestCalendarOverflowMigrationOrder(t *testing.T) {
	c := newCalendarQueue()
	far := Time(3 * wheelSize)
	c.push(&event{at: far, seq: 1}) // overflow
	c.push(&event{at: far, seq: 2}) // overflow, same cycle
	c.push(&event{at: 10, seq: 3})
	if p := c.pop(); p.seq != 3 {
		t.Fatalf("pop seq = %d, want 3", p.seq)
	}
	// Cursor at 10: far is still beyond the horizon. Fast-forward pop
	// migrates both, then a direct push to the same cycle must append
	// after them.
	if p := c.peek(); p.at != far || p.seq != 1 {
		t.Fatalf("peek = (%d,%d), want (%d,1)", p.at, p.seq, far)
	}
	got := []*event{c.pop()}
	c.push(&event{at: far, seq: 4}) // now inside the window: direct push
	got = append(got, c.pop(), c.pop())
	for i, want := range []uint64{1, 2, 4} {
		if got[i].seq != want {
			t.Fatalf("pop %d: seq = %d, want %d", i, got[i].seq, want)
		}
	}
	if c.len() != 0 {
		t.Fatalf("len = %d, want 0", c.len())
	}
}

// TestCalendarBucketReuse drains and refills the same cycle buckets
// repeatedly (modeling a hot simulation loop) and checks the backing
// arrays behave FIFO across reuse.
func TestCalendarBucketReuse(t *testing.T) {
	c := newCalendarQueue()
	var seq uint64
	var now Time
	for round := 0; round < 3*wheelSize; round++ {
		for i := 0; i < 3; i++ {
			seq++
			c.push(&event{at: now + 1, seq: seq})
		}
		base := seq - 2
		for i := 0; i < 3; i++ {
			p := c.pop()
			if p.seq != base+uint64(i) {
				t.Fatalf("round %d pop %d: seq = %d, want %d", round, i, p.seq, base+uint64(i))
			}
			now = p.at
		}
	}
}

// TestCalendarEmpty covers the nil returns.
func TestCalendarEmpty(t *testing.T) {
	c := newCalendarQueue()
	if c.pop() != nil || c.peek() != nil || c.len() != 0 {
		t.Fatal("empty queue must return nil/0")
	}
	c.push(&event{at: 7, seq: 1})
	c.pop()
	if c.pop() != nil || c.peek() != nil {
		t.Fatal("drained queue must return nil")
	}
}

// FuzzEventQueue cross-checks calendar vs heap pop order on random
// (delay, op) streams — same-cycle tie-break stability included, since
// delay 0 is a reachable case — and, per stream, that Schedule after a
// deadlocked Run panics at engine level.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 255, 0, 0, 9})
	f.Add([]byte{255, 254, 253, 7, 7, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cal, hp := newCalendarQueue(), &heapQueue{}
		var now Time
		var seq uint64
		live := 0
		for i := 0; i < len(data); i++ {
			b := data[i]
			if b < 160 || live == 0 {
				// Push: spread the byte across the interesting delay
				// bands (ties, wheel, horizon, deep overflow).
				d := Time(b)
				switch b % 4 {
				case 1:
					d = Time(b) * 16
				case 2:
					d = Time(wheelSize-4) + Time(b%9)
				case 3:
					d = Time(b) * 97 * 41
				}
				seq++
				cal.push(&event{at: now + d, seq: seq})
				hp.push(&event{at: now + d, seq: seq})
				live++
			} else {
				a, bb := cal.pop(), hp.pop()
				if a.at != bb.at || a.seq != bb.seq {
					t.Fatalf("op %d: cal (%d,%d) != heap (%d,%d)", i, a.at, a.seq, bb.at, bb.seq)
				}
				now = a.at
				live--
			}
			pa, pb := cal.peek(), hp.peek()
			if (pa == nil) != (pb == nil) || (pa != nil && (pa.at != pb.at || pa.seq != pb.seq)) {
				t.Fatalf("op %d: peek mismatch", i)
			}
		}
		for {
			a, b := cal.pop(), hp.pop()
			if (a == nil) != (b == nil) {
				t.Fatal("drain length mismatch")
			}
			if a == nil {
				break
			}
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("drain: cal (%d,%d) != heap (%d,%d)", a.at, a.seq, b.at, b.seq)
			}
		}

		// Schedule-after-deadlock must panic.
		e := NewEngine()
		e.Spawn("stuck", func(p *Process) { NewSignal(e).Wait(p) })
		e.Run()
		if !e.Deadlocked() {
			t.Fatal("expected deadlock")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Schedule after deadlock must panic")
				}
			}()
			e.Schedule(0, func() {})
		}()
	})
}
