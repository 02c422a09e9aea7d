package simtime

import (
	"testing"

	"repro/internal/rng"
)

// refHeap is the oracle for the kernel's pop order: a plain binary heap
// of (at, seq) keys with its own sequence counter, the same comparator
// and the same scheduling-order tie-break. Stopped keys are skipped
// when they reach the top.
type refHeap struct {
	events  []*event
	seq     uint64
	stopped map[uint64]bool
	live    int
}

func (h *refHeap) push(at Time) uint64 {
	h.seq++
	h.live++
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
	return h.seq
}

func (h *refHeap) stop(seq uint64) {
	if h.stopped == nil {
		h.stopped = make(map[uint64]bool)
	}
	h.stopped[seq] = true
	h.live--
}

func (h *refHeap) pop() (Time, uint64) {
	for {
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
		if !h.stopped[ev.seq] {
			h.live--
			return ev.at, ev.seq
		}
	}
}

// checkHeap asserts the engine heap between steps: every entry knows its
// position and no child sorts before its parent.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.heap {
		if ev.idx != i {
			t.Fatalf("heap entry %d records position %d", i, ev.idx)
		}
		if i > 0 && eventLess(ev, e.heap[(i-1)/2]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}

// TestHeapMatchesReference drives the kernel and the reference heap in
// lockstep through randomized schedules: Engine.At, Actor.Post and
// Actor.PostTimer at colliding and past (clamped) timestamps, timers
// stopped before the run and from inside handlers, and handlers that
// post nothing, one event or several. A handler's first post takes the
// root from the running event and a post-free handler leaves Step to
// pop it, so both paths run on every trial. The sequence counters agree
// by construction, so any divergence in pop order or pending count is
// a kernel bug.
func TestHeapMatchesReference(t *testing.T) {
	r := rng.New(0x1a4e5)
	replaced, popped := 0, 0
	for trial := 0; trial < 60; trial++ {
		e := NewEngine()
		actors := make([]*Actor, 1+r.Intn(7))
		for i := range actors {
			actors[i] = NewActor(e, "n")
		}
		ref := &refHeap{}
		var timers []Timer
		var seqs []uint64

		// schedule queues one event through a random entry point and
		// mirrors it into the reference heap with the clamped timestamp.
		// Running events schedule 0–3 children near the current time,
		// sometimes in the past, and sometimes stop a pending timer.
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			kids := 0
			if depth < 3 {
				kids = r.Intn(4)
			}
			kidAt := make([]Time, kids)
			for i := range kidAt {
				kidAt[i] = at - 4 + Time(r.Intn(16))
			}
			stop := r.Intn(4) == 0
			fn := func() {
				if kids == 0 {
					popped++
				} else {
					replaced++
				}
				for _, ka := range kidAt {
					schedule(ka, depth+1)
				}
				if stop && len(timers) > 0 {
					i := r.Intn(len(timers))
					if timers[i].Stop() {
						ref.stop(seqs[i])
					}
				}
			}
			clamped := at
			if clamped < e.Now() {
				clamped = e.Now()
			}
			seq := ref.push(clamped)
			switch k := r.Intn(len(actors) + 2); {
			case k == 0:
				e.At(at, fn)
			case k == 1:
				tm := actors[r.Intn(len(actors))].PostTimer(at, fn)
				if tm.ev.seq != seq {
					t.Fatalf("trial %d: timer seq %d, reference %d", trial, tm.ev.seq, seq)
				}
				timers, seqs = append(timers, tm), append(seqs, seq)
			default:
				actors[k-2].Post(at, fn)
			}
		}
		for i, n := 0, 20+r.Intn(60); i < n; i++ {
			schedule(Time(r.Intn(64)), 0)
		}
		for i := 0; i < len(timers); i += 3 {
			if timers[i].Stop() {
				ref.stop(seqs[i])
			}
		}

		drainAgainstReference(t, trial, e, ref)
	}
	if replaced == 0 || popped == 0 {
		t.Fatalf("%d handlers posted and %d posted nothing; both paths must run", replaced, popped)
	}
}

// drainAgainstReference steps the engine until it is empty, checking
// before every step that its heap is well formed, that it holds as many
// live events as the reference and that its root is the reference's
// next pop.
func drainAgainstReference(t *testing.T, trial int, e *Engine, ref *refHeap) {
	t.Helper()
	steps := 0
	for e.Pending() > 0 {
		checkHeap(t, e)
		if e.Pending() != ref.live {
			t.Fatalf("trial %d step %d: %d pending, reference %d", trial, steps, e.Pending(), ref.live)
		}
		wat, wseq := ref.pop()
		if h := e.heap[0]; h.at != wat || h.seq != wseq {
			t.Fatalf("trial %d step %d: heap at (%d,%d), reference at (%d,%d)",
				trial, steps, h.at, h.seq, wat, wseq)
		}
		e.Step()
		steps++
	}
	if ref.live != 0 {
		t.Fatalf("trial %d: reference kept %d events after the engine drained", trial, ref.live)
	}
	if steps == 0 {
		t.Fatalf("trial %d executed no events", trial)
	}
}

// TestLaneMergeMatchesReference: the events of every actor and of the
// engine itself share one heap, and for randomized schedules — heavy
// timestamp collisions, past-time clamping, and events scheduled from
// inside running handlers — it pops the exact (at, seq) sequence of the
// reference heap, whichever actor each event was posted to.
func TestLaneMergeMatchesReference(t *testing.T) {
	r := rng.New(0x1a4e5)
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		actors := make([]*Actor, 1+r.Intn(7))
		for i := range actors {
			actors[i] = NewActor(e, "n")
		}
		ref := &refHeap{}

		// schedule queues one event on the engine or a random actor and
		// mirrors it into the reference heap with the engine's clamped
		// timestamp. Executed events reschedule children at nearby (often
		// colliding, sometimes past) timestamps, up to a bounded depth.
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			k := r.Intn(len(actors) + 1)
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
			if k == 0 {
				e.At(at, fn)
			} else {
				actors[k-1].Post(at, fn)
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
		drainAgainstReference(t, trial, e, ref)
	}
}

// TestDeferredFixMatchesReference pins Step's deferred root fix: the
// running event keeps the heap root until its handler's first post
// replaces it, and Step pops it only if nothing was posted. Handlers
// post the next quantum to their own actor, message other actors, and
// post to actors created mid-step — bursts large enough to grow the
// heap's backing array while the running event still holds the root.
// The pop order must stay the reference heap's.
func TestDeferredFixMatchesReference(t *testing.T) {
	r := rng.New(0xdef1)
	grewMidStep := 0
	for trial := 0; trial < 40; trial++ {
		e := NewEngine()
		actors := []*Actor{NewActor(e, "n")}
		ref := &refHeap{}

		// post queues an event on target k (0 the engine, k > 0
		// actors[k-1]) and mirrors it into the reference heap.
		var post func(k int, at Time, depth int)
		post = func(k int, at Time, depth int) {
			fn := func() {
				if depth >= 4 {
					return
				}
				now := e.Now()
				// The next quantum on the executing actor.
				if r.Intn(4) != 0 {
					post(k, now+Time(r.Intn(8)), depth+1)
				}
				// A message to another existing actor.
				if r.Intn(2) == 0 {
					post(r.Intn(len(actors)+1), now-2+Time(r.Intn(16)), depth+1)
				}
				// A burst of fresh actors.
				if len(actors) < 96 && r.Intn(8) == 0 {
					capacity := cap(e.heap)
					for i, n := 0, 8+r.Intn(24); i < n; i++ {
						actors = append(actors, NewActor(e, "new"))
						post(len(actors), now+Time(r.Intn(32)), depth+1)
					}
					if cap(e.heap) != capacity {
						grewMidStep++
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
		drainAgainstReference(t, trial, e, ref)
	}
	if grewMidStep == 0 {
		t.Fatal("the heap never grew inside a running event")
	}
}

// TestStepInsideHandlerPanics: while an event runs it may still hold
// the heap root, so stepping the engine from a handler is refused
// rather than popping out of order.
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

// BenchmarkEngineStep measures the kernel's host cost per event: 64
// actors, each running a pump that charges some work and posts its own
// next event, with every eighth event also messaging the next actor —
// the shape of a cluster of nodes running quanta. One op is one event.
func BenchmarkEngineStep(b *testing.B) {
	const size = 64
	e := NewEngine()
	actors := make([]*Actor, size)
	for i := range actors {
		actors[i] = NewActor(e, "n")
	}
	pumps := make([]func(), size)
	msgs := make([]func(), size)
	for i := range actors {
		a, next := actors[i], actors[(i+1)%size]
		n := 0
		msgs[i] = func() { a.Charge(Microsecond) }
		pumps[i] = func() {
			a.Charge(Time(500 + 37*(n%11)))
			if n++; n%8 == 0 {
				next.Post(a.Now()+5*Microsecond, msgs[(i+1)%size])
			}
			a.Post(a.Now(), pumps[i])
		}
		a.Post(Time(i), pumps[i])
	}
	e.Run(4 * size) // warm the free list and the heap
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

const (
	time2 = 2 * Microsecond
	time3 = 3 * Microsecond
)
