// Package simtime provides the discrete-event simulation kernel under the
// PM2 cluster reproduction.
//
// The paper reports microsecond-scale measurements (thread migration in less
// than 75 µs, slot negotiations of a few hundred µs) taken on a 1999 PoPC
// cluster. We reproduce those measurements in virtual time: nodes are actors
// with private busy clocks, every simulated operation charges a calibrated
// cost, and network messages are future events. One goroutine pops one
// binary min-heap of events in (at, seq) order, so execution is
// deterministic: equal seeds yield bit-identical event orders and timings.
package simtime

import "fmt"

// Time is a point in virtual time, in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros returns t expressed in (fractional) microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time as microseconds, the natural unit of the paper.
func (t Time) String() string { return fmt.Sprintf("%.3fµs", t.Micros()) }

// event is one scheduled closure. When actor is non-nil the event was
// posted through Actor.Post and the busy-clock prologue/epilogue runs
// around fn without a wrapper closure. idx is the event's position in
// the engine heap, -1 once it runs or is stopped; gen counts the
// struct's recycles, so a Timer handle outliving its event stops
// nothing.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	actor *Actor
	idx   int
	gen   uint32
}

// eventLess is the one ordering in the kernel: earliest time first,
// scheduling order among ties. Sequence numbers are unique, so the
// order is total.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event scheduler: one binary
// min-heap of events ordered by eventLess, popped on the driving
// goroutine. Event structs are recycled through a free list, so the
// steady state allocates nothing per event (pinned by
// TestKernelStepAllocations).
type Engine struct {
	now    Time
	seq    uint64
	nSteps uint64
	heap   []*event
	free   []*event
	// running is the event Step is executing while it still sits at
	// the heap root; the handler's first post takes the root from it.
	running  *event
	stepping bool
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	if e.running != nil {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// Clock returns the engine's full clock state — current virtual time,
// last assigned sequence number and executed step count — for
// checkpointing. Meaningful only while the queue is drained; a
// restored engine continues assigning sequence numbers exactly where
// the checkpointed one stopped, which is what keeps post-restore event
// orders identical to the uninterrupted run.
func (e *Engine) Clock() (now Time, seq, steps uint64) {
	return e.now, e.seq, e.nSteps
}

// RestoreClock sets the engine clock state captured by Clock on a
// fresh engine. It must be called before any events are scheduled
// (restore-time state installation only).
func (e *Engine) RestoreClock(now Time, seq, steps uint64) {
	if e.Pending() != 0 {
		panic("simtime: RestoreClock with pending events")
	}
	e.now, e.seq, e.nSteps = now, seq, steps
}

// WindowStats is the accounting of the windowed parallel executor, which
// no longer exists.
//
// Deprecated: the engine is serial and Engine.WindowStats always returns
// the zero value. ROADMAP item 11 deletes both, together with the
// pm2perf probes that still read them.
type WindowStats struct {
	AmbientSteps      uint64
	SingleLaneWindows uint64
	ParallelWindows   uint64
	ParallelEvents    uint64
	Participants      uint64
}

// WindowStats returns the zero value.
//
// Deprecated: see type WindowStats.
func (e *Engine) WindowStats() WindowStats { return WindowStats{} }

// At schedules fn to run at absolute virtual time t. Times in the past
// are clamped to Now; ties run in scheduling order.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn, nil) }

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// schedule assigns the next sequence number and queues the event. While
// Step's event still holds the root, the new event takes its place with
// one sift-down instead of a sift-up now and a pop later.
func (e *Engine) schedule(t Time, fn func(), a *Actor) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc(t, e.seq, fn, a)
	if e.running != nil {
		e.running = nil
		ev.idx = 0
		e.heap[0] = ev
		e.siftDown(0)
		return ev
	}
	ev.idx = len(e.heap)
	e.heap = append(e.heap, ev)
	e.siftUp(ev.idx)
	return ev
}

// Step executes the earliest pending event, advancing Now to its
// timestamp. It reports whether an event was executed.
//
// The event stays at the heap root while its handler runs: the handler's
// first post replaces it there (a quantum pump posts one per step), and
// Step pops it only if the handler posted nothing. A handler that steps
// the engine panics, and so does every Step after a handler panicked.
func (e *Engine) Step() bool {
	if e.stepping {
		panic("simtime: Step from inside a running event")
	}
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0]
	ev.idx = -1
	e.now = ev.at
	e.nSteps++
	e.running = ev
	e.stepping = true
	if a := ev.actor; a != nil {
		start := ev.at
		if a.busyUntil > start {
			start = a.busyUntil
		}
		a.localNow = start
		a.inside = true
		ev.fn()
		a.inside = false
		a.busyUntil = a.localNow
	} else {
		ev.fn()
	}
	e.stepping = false
	if e.running != nil {
		e.running = nil
		e.remove(0)
	}
	e.recycle(ev)
	return true
}

// Run executes events until the queue is empty or the step limit is hit.
// A limit of 0 means no limit. It returns the number of events executed.
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline and then advances
// Now to deadline (if the queue drained earlier).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// alloc takes an event struct from the free list (or the heap of last
// resort: Go's) and initializes it.
func (e *Engine) alloc(at Time, seq uint64, fn func(), a *Actor) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.actor = at, seq, fn, a
	return ev
}

// recycle returns a finished event to the free list, dropping its
// closure so it does not pin captured state.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.actor = nil, nil
	ev.gen++
	e.free = append(e.free, ev)
}

// remove takes the event at heap position i out of the heap.
func (e *Engine) remove(i int) *event {
	h := e.heap
	ev := h[i]
	last := len(h) - 1
	h[i] = h[last]
	h[i].idx = i
	h[last] = nil
	e.heap = h[:last]
	if i < last {
		e.siftUp(i)
		e.siftDown(i)
	}
	ev.idx = -1
	return ev
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].idx, h[p].idx = i, p
		i = p
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		least := i
		if c := 2*i + 1; c < n && eventLess(h[c], h[least]) {
			least = c
		}
		if c := 2*i + 2; c < n && eventLess(h[c], h[least]) {
			least = c
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		h[i].idx, h[least].idx = i, least
		i = least
	}
}

// Actor models a sequential resource (a node's CPU): events destined for the
// actor serialize on its busy clock, and handlers charge virtual time for
// the work they model.
type Actor struct {
	eng  *Engine
	name string
	// busyUntil is the first instant at which the actor is free.
	busyUntil Time
	// localNow is the actor-local clock while inside a handler.
	localNow Time
	inside   bool
}

// NewActor returns an actor bound to engine eng. The name is used in
// panics and debugging output only.
func NewActor(eng *Engine, name string) *Actor {
	return &Actor{eng: eng, name: name}
}

// Name returns the actor's debug name.
func (a *Actor) Name() string { return a.name }

// Engine returns the engine the actor is bound to.
func (a *Actor) Engine() *Engine { return a.eng }

// Now returns the actor-local clock: inside a handler this includes time
// charged so far; outside it is the instant the actor becomes free.
func (a *Actor) Now() Time {
	if a.inside {
		return a.localNow
	}
	if now := a.eng.now; a.busyUntil <= now {
		return now
	}
	return a.busyUntil
}

// Post schedules fn on the actor at or after absolute time at. If the actor
// is still busy at that instant the handler is delayed until it frees up, so
// handlers on one actor never overlap in virtual time.
func (a *Actor) Post(at Time, fn func()) { a.eng.schedule(at, fn, a) }

// PostTimer is Post returning a handle that can stop the event. Neither
// allocates once the engine's free list is warm.
func (a *Actor) PostTimer(at Time, fn func()) Timer {
	ev := a.eng.schedule(at, fn, a)
	return Timer{ev: ev, gen: ev.gen}
}

// Timer is a handle on one event posted by PostTimer.
type Timer struct {
	ev  *event
	gen uint32 // ev.gen when posted
}

// Stop removes the timer's event from the queue if it is still pending,
// and reports whether it did. A stopped event runs nothing: it leaves
// Pending at once and never moves Now, Steps or its actor's busy clock.
// A timer that already ran or was stopped stops nothing, even once its
// event struct is recycled.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.idx < 0 {
		return false
	}
	e := ev.actor.eng
	e.recycle(e.remove(ev.idx))
	return true
}

// PostAfter schedules fn on the actor d after the current virtual time.
func (a *Actor) PostAfter(d Time, fn func()) { a.Post(a.eng.now+d, fn) }

// BusyUntil returns the first instant at which the actor is free — the
// busy-clock state a checkpoint captures. Meaningful outside handlers
// only (a quiesced engine).
func (a *Actor) BusyUntil() Time {
	if a.inside {
		panic("simtime: BusyUntil from inside a handler on " + a.name)
	}
	return a.busyUntil
}

// RestoreBusy sets the actor's busy clock to a value captured by
// BusyUntil — restore-time state installation only.
func (a *Actor) RestoreBusy(t Time) {
	if a.inside {
		panic("simtime: RestoreBusy from inside a handler on " + a.name)
	}
	a.busyUntil = t
}

// Mute runs fn in a handler-like context on the actor with all charges
// discarded: fn may call methods that Charge (state installation paths
// shared with charged handlers) without advancing the busy clock.
// Checkpoint capture and restore use it — the captured busy clocks
// already include every charge of the quiesce itself, so replaying the
// installation must cost nothing.
func (a *Actor) Mute(fn func()) {
	savedInside, savedLocal := a.inside, a.localNow
	free := a.Now()
	a.inside = true
	a.localNow = free
	defer func() {
		a.inside, a.localNow = savedInside, savedLocal
	}()
	fn()
}

// Charge advances the actor-local clock by d, modeling d of CPU work. It
// must be called from within a handler posted via Post.
func (a *Actor) Charge(d Time) {
	if !a.inside {
		panic("simtime: Charge outside of actor handler (" + a.name + ")")
	}
	if d < 0 {
		panic("simtime: negative charge on " + a.name)
	}
	a.localNow += d
}
