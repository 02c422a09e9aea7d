package simtime

import (
	"testing"

	"repro/internal/rng"
)

// refHeap is the pre-lane kernel's data structure — one global event
// heap with a global sequence counter — kept as the oracle for the
// merge-order property test. Identical comparator, identical
// scheduling-order tie-break.
type refHeap struct {
	events []*event
	seq    uint64
}

func (h *refHeap) push(at Time) {
	h.seq++
	h.events = append(h.events, &event{at: at, seq: h.seq})
	i := len(h.events) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h.events[i], h.events[p]) {
			break
		}
		h.events[i], h.events[p] = h.events[p], h.events[i]
		i = p
	}
}

func (h *refHeap) pop() (Time, uint64) {
	ev := h.events[0]
	last := len(h.events) - 1
	h.events[0] = h.events[last]
	h.events[last] = nil
	h.events = h.events[:last]
	n := len(h.events)
	i := 0
	for {
		least := i
		if c := 2*i + 1; c < n && eventLess(h.events[c], h.events[least]) {
			least = c
		}
		if c := 2*i + 2; c < n && eventLess(h.events[c], h.events[least]) {
			least = c
		}
		if least == i {
			break
		}
		h.events[i], h.events[least] = h.events[least], h.events[i]
		i = least
	}
	return ev.at, ev.seq
}

// TestLaneMergeMatchesReference is the tentpole's property test: for
// randomized schedules — heavy timestamp collisions, past-time clamping,
// and events scheduled from inside running handlers — the lane-decomposed
// engine pops the exact (at, seq) sequence the monolithic global heap
// would have. Scheduling goes through both structures in lockstep, so
// the sequence counters agree by construction and any divergence in pop
// order is a lane/merge bug.
func TestLaneMergeMatchesReference(t *testing.T) {
	r := rng.New(0x1a4e5)
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		actors := make([]*Actor, 1+r.Intn(7))
		for i := range actors {
			actors[i] = NewActor(e, "n")
		}
		ref := &refHeap{}

		// schedule queues one event on a random lane — sometimes the
		// ambient lane, sometimes an actor — and mirrors it into the
		// reference heap with the engine's clamped timestamp. Executed
		// events reschedule children at nearby (often colliding, sometimes
		// past) timestamps, up to a bounded depth.
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			lane := r.Intn(len(actors) + 1)
			kids := 0
			if depth < 3 {
				kids = r.Intn(3)
			}
			kidAt := make([]Time, kids)
			for i := range kidAt {
				kidAt[i] = at - 4 + Time(r.Intn(16))
			}
			fn := func() {
				for _, ka := range kidAt {
					schedule(ka, depth+1)
				}
			}
			if lane == 0 {
				e.At(at, fn)
			} else {
				actors[lane-1].Post(at, fn)
			}
			clamped := at
			if clamped < e.Now() {
				clamped = e.Now()
			}
			ref.push(clamped)
		}
		for i, n := 0, 20+r.Intn(60); i < n; i++ {
			schedule(Time(r.Intn(64)), 0)
		}

		steps := 0
		for e.Pending() > 0 {
			wat, wseq := ref.pop()
			gat, gseq := e.minLane().PeekNextEventTime()
			if gat != wat || gseq != wseq {
				t.Fatalf("trial %d step %d: lane merge at (%d,%d), reference heap at (%d,%d)",
					trial, steps, gat, gseq, wat, wseq)
			}
			e.Step()
			checkCalendar(t, e)
			steps++
		}
		if len(ref.events) != 0 {
			t.Fatalf("trial %d: reference heap kept %d events after the engine drained",
				trial, len(ref.events))
		}
		if steps == 0 {
			t.Fatalf("trial %d executed no events", trial)
		}
	}
}

// checkCalendar asserts the calendar index between steps: every
// non-empty lane is tracked exactly once, in the bucket of its head
// timestamp, under a cached key equal to its head key; empty lanes are
// untracked; every bucket is a heap by cached key.
func checkCalendar(t *testing.T, e *Engine) {
	t.Helper()
	c := &e.cal
	tracked := 0
	for _, l := range e.lanes {
		if len(l.heap) == 0 {
			if l.bkt >= 0 {
				t.Fatalf("empty lane %d still tracked in bucket %d", l.id, l.bkt)
			}
			continue
		}
		tracked++
		if l.bkt < 0 {
			t.Fatalf("non-empty lane %d untracked", l.id)
		}
		x := c.buckets[l.bkt][l.bpos]
		if h := l.heap[0]; x.l != l || x.at != h.at || x.seq != h.seq {
			t.Fatalf("lane %d: bucket entry (%d,%d) lane %d, head (%d,%d)", l.id, x.at, x.seq, x.l.id, h.at, h.seq)
		}
		if b := c.bucketOf(x.at); b != l.bkt {
			t.Fatalf("lane %d at %d sits in bucket %d, want %d", l.id, x.at, l.bkt, b)
		}
	}
	if tracked != c.count {
		t.Fatalf("calendar counts %d lanes, %d are non-empty", c.count, tracked)
	}
	for b, s := range c.buckets {
		for i := 1; i < len(s); i++ {
			if s[i].less(&s[(i-1)/2]) {
				t.Fatalf("bucket %d breaks the heap order at %d", b, i)
			}
		}
	}
}

// TestDeferredFixMatchesReference pins Step's single post-event calendar
// fix: handlers post to their own lane (the next quantum), to other
// lanes, and to lanes created mid-step — enough of those to force a
// calendar rebuild while an event runs. The pop order must stay the
// reference heap's, and after every step each cached key must equal its
// lane's head.
func TestDeferredFixMatchesReference(t *testing.T) {
	r := rng.New(0xdef1)
	rebuiltMidStep := 0
	for trial := 0; trial < 40; trial++ {
		e := NewEngine()
		actors := []*Actor{NewActor(e, "n")}
		ref := &refHeap{}

		// post queues an event on lane k (0 ambient, k > 0 actors[k-1])
		// and mirrors it into the reference heap.
		var post func(k int, at Time, depth int)
		post = func(k int, at Time, depth int) {
			fn := func() {
				if depth >= 4 {
					return
				}
				now := e.Now()
				// The next quantum on the executing lane.
				if r.Intn(4) != 0 {
					post(k, now+Time(r.Intn(8)), depth+1)
				}
				// A message to another existing lane.
				if r.Intn(2) == 0 {
					post(r.Intn(len(actors)+1), now-2+Time(r.Intn(16)), depth+1)
				}
				// A burst of fresh lanes.
				if len(actors) < 96 && r.Intn(8) == 0 {
					buckets := len(e.cal.buckets)
					for i, n := 0, 8+r.Intn(24); i < n; i++ {
						actors = append(actors, NewActor(e, "new"))
						post(len(actors), now+Time(r.Intn(32)), depth+1)
					}
					if len(e.cal.buckets) != buckets {
						rebuiltMidStep++
					}
				}
			}
			if k == 0 {
				e.At(at, fn)
			} else {
				actors[k-1].Post(at, fn)
			}
			if at < e.Now() {
				at = e.Now()
			}
			ref.push(at)
		}
		for i, n := 0, 4+r.Intn(16); i < n; i++ {
			post(r.Intn(len(actors)+1), Time(r.Intn(32)), 0)
		}

		steps := 0
		for e.Pending() > 0 {
			wat, wseq := ref.pop()
			gat, gseq := e.minLane().PeekNextEventTime()
			if gat != wat || gseq != wseq {
				t.Fatalf("trial %d step %d: engine at (%d,%d), reference heap at (%d,%d)",
					trial, steps, gat, gseq, wat, wseq)
			}
			e.Step()
			checkCalendar(t, e)
			steps++
		}
		if len(ref.events) != 0 {
			t.Fatalf("trial %d: reference heap kept %d events", trial, len(ref.events))
		}
	}
	if rebuiltMidStep == 0 {
		t.Fatal("no calendar rebuild happened inside a running event")
	}
}

// TestStepInsideHandlerPanics: while an event runs its lane's calendar
// entry is stale by design, so stepping the engine from a handler is
// refused rather than popping out of order.
func TestStepInsideHandlerPanics(t *testing.T) {
	e := NewEngine()
	a := NewActor(e, "a")
	a.Post(5, func() {})
	e.At(1, func() { e.Step() })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a nested Step did not panic")
		}
	}()
	e.Run(0)
}

// TestStepPrimitives exercises the per-lane step interface directly:
// HasPendingEvents / PeekNextEventTime / ProcessNextEvent on one lane
// behave as an independent queue with a lane-local clock.
func TestStepPrimitives(t *testing.T) {
	e := NewEngine()
	a := NewActor(e, "a")
	b := NewActor(e, "b")
	var ran []Time
	a.Post(30, func() { ran = append(ran, 30) })
	a.Post(10, func() { ran = append(ran, 10) })
	b.Post(5, func() {})
	l := a.lane
	if !l.HasPendingEvents() {
		t.Fatal("lane should have pending events")
	}
	if at, _ := l.PeekNextEventTime(); at != 10 {
		t.Fatalf("peek = %v, want 10", at)
	}
	ev := l.ProcessNextEvent()
	if ev.at != 10 || l.now != 10 {
		t.Fatalf("processed at=%v lane now=%v, want 10/10", ev.at, l.now)
	}
	l.recycle(ev)
	if at, _ := l.PeekNextEventTime(); at != 30 {
		t.Fatalf("peek after pop = %v, want 30", at)
	}
	if !b.lane.HasPendingEvents() {
		t.Fatal("lane b must be untouched by stepping lane a")
	}
	if len(ran) != 1 || ran[0] != 10 {
		t.Fatalf("ran = %v", ran)
	}
}

// TestKernelStepAllocations extends the AllocsPerRun guard from the
// convoy path to the kernel: with warmed free lists and pre-built
// closures, scheduling + executing an event allocates nothing.
func TestKernelStepAllocations(t *testing.T) {
	e := NewEngine()
	a := NewActor(e, "a")
	b := NewActor(e, "b")
	var ping, pong func()
	ping = func() {
		a.Charge(time3)
		b.Post(a.Now()+time2, pong)
	}
	pong = func() {
		b.Charge(time3)
		a.Post(b.Now()+time2, ping)
	}
	// Warm the free lists and the heap/merge capacity.
	a.Post(0, ping)
	e.Run(64)
	avg := testing.AllocsPerRun(200, func() {
		e.Run(2)
	})
	if avg > 0 {
		t.Fatalf("kernel steady state allocates %.2f allocs per 2 events, want 0", avg)
	}
}

// BenchmarkEngineStep measures the serial kernel's host cost per event:
// 64 actor lanes, each running a pump that charges some work and posts
// its own next event, with every eighth event also messaging the next
// lane — the shape of a cluster of nodes running quanta. One op is one
// event.
func BenchmarkEngineStep(b *testing.B) {
	const lanes = 64
	e := NewEngine()
	actors := make([]*Actor, lanes)
	for i := range actors {
		actors[i] = NewActor(e, "n")
	}
	pumps := make([]func(), lanes)
	msgs := make([]func(), lanes)
	for i := range actors {
		a, next := actors[i], actors[(i+1)%lanes]
		n := 0
		msgs[i] = func() { a.Charge(Microsecond) }
		pumps[i] = func() {
			a.Charge(Time(500 + 37*(n%11)))
			if n++; n%8 == 0 {
				a.PostTo(next, a.Now()+5*Microsecond, msgs[(i+1)%lanes])
			}
			a.Post(a.Now(), pumps[i])
		}
		a.Post(Time(i), pumps[i])
	}
	e.Run(4 * lanes) // warm the free lists and the calendar
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

const (
	time2 = 2 * Microsecond
	time3 = 3 * Microsecond
)
