// Package simtime provides the discrete-event simulation kernel under the
// PM2 cluster reproduction.
//
// The paper reports microsecond-scale measurements (thread migration in less
// than 75 µs, slot negotiations of a few hundred µs) taken on a 1999 PoPC
// cluster. We reproduce those measurements in virtual time: nodes are actors
// with private busy clocks, every simulated operation charges a calibrated
// cost, and network messages are future events. Every actor owns a private
// event lane (lane.go) and the engine merges lanes in earliest-(at, seq)
// order, so execution is deterministic: equal seeds yield bit-identical
// event orders and timings. By default the merge runs on one goroutine;
// SetParallel enables the conservative time-window executor (parallel.go),
// which runs lanes on a worker pool while keeping handler state lane-affine
// and shared-state updates commit-ordered — results are bit-identical at
// any worker count.
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

// Engine is a deterministic discrete-event scheduler over per-actor event
// lanes. Scheduling and stepping happen on the driving goroutine; during a
// parallel window (SetParallel) worker goroutines execute their own lanes
// only, and everything cross-lane is applied in merge order by the commit
// phase — so all observable state evolves exactly as in a serial run.
type Engine struct {
	now      Time
	seq      uint64
	nSteps   uint64
	nPending int
	// lanes[0] is the ambient lane: events scheduled through Engine.At
	// (drivers, balancers, public cluster API) rather than on an actor.
	// Ambient events may touch any lane's state, so the parallel
	// executor treats them as barriers.
	ambient *lane
	lanes   []*lane
	// cal is the calendar merge over non-empty lanes by head-event key
	// (lane.go).
	cal calendar
	// stepping is the lane whose event Step is executing; its calendar
	// position is fixed once, after the event returns.
	stepping *lane

	// Parallel execution configuration and window state (parallel.go).
	workers       int
	horizon       Time
	inWindow      bool
	windowBoundAt Time
	inCommit      bool
	participants  []*lane
	cursorHeap    []*lane
	deferred      []pushEntry
	wstats        WindowStats
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.ambient = e.newLane()
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.nPending }

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
	if e.nPending != 0 {
		panic("simtime: RestoreClock with pending events")
	}
	e.now, e.seq, e.nSteps = now, seq, steps
}

// At schedules fn to run at absolute virtual time t, on the ambient lane.
// Times in the past are clamped to Now; ties run in scheduling order.
// Ambient events are cross-lane by nature (they may read or mutate any
// node's state), so scheduling one from inside a parallel window is a
// bug: post to an actor instead, or schedule before/after the window.
func (e *Engine) At(t Time, fn func()) {
	if e.inWindow {
		panic("simtime: Engine.At during a parallel window (ambient events are barriers; post to an actor instead)")
	}
	e.schedule(e.ambient, t, fn, nil)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// schedule assigns the next global sequence number and queues the event
// on lane l. Serial contexts only (including barriers and the commit
// phase's deferred delivery); parallel windows record pushes per lane
// instead (parallel.go).
func (e *Engine) schedule(l *lane, t Time, fn func(), a *Actor) *event {
	if e.inCommit {
		panic("simtime: scheduling from a commit closure (commits are state application only)")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := l.alloc(t, e.seq, fn, a)
	l.push(ev)
	e.nPending++
	if ev.idx == 0 && l != e.stepping {
		e.mergeFix(l)
	}
	return ev
}

// Step executes the earliest pending event across all lanes, advancing
// Now to its timestamp. It reports whether an event was executed.
//
// The popped lane's calendar position is fixed once, after the event
// runs, instead of on the pop and again when the handler posts the
// lane's next event (a quantum pump posts one per step). Meanwhile its
// bucket entry keeps the popped key, which is <= every other key, and
// the cached minimum is cleared, so nothing may read the merge while a
// handler runs: a handler that steps the engine panics, and so does
// every Step after a handler panicked.
func (e *Engine) Step() bool {
	if e.stepping != nil {
		panic("simtime: Step from inside a running event")
	}
	l := e.minLane()
	if l == nil {
		return false
	}
	ev := l.remove(0)
	e.nPending--
	e.now = ev.at
	e.nSteps++
	e.cal.min = nil
	e.stepping = l
	l.exec(ev)
	e.stepping = nil
	e.mergeFix(l)
	l.recycle(ev)
	return true
}

// Run executes events until the queue is empty or the step limit is hit.
// A limit of 0 means no limit. It returns the number of events executed.
// With SetParallel(workers > 1) the events run window-by-window; a window
// is committed whole, so a saturated run may overshoot the limit by the
// tail of its last window (drained runs are unaffected, and execute the
// exact serial event sequence).
func (e *Engine) Run(limit uint64) uint64 {
	if e.workers > 1 {
		return e.runParallel(limit, 0, false)
	}
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
	if e.workers > 1 {
		e.runParallel(0, deadline, true)
	} else {
		for l := e.minLane(); l != nil && l.heap[0].at <= deadline; l = e.minLane() {
			e.Step()
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Actor models a sequential resource (a node's CPU): events destined for the
// actor serialize on its busy clock, and handlers charge virtual time for
// the work they model. Each actor owns one event lane; all of the actor's
// state is lane-affine, mutated only by its own handlers (or by ambient
// events, which the parallel executor runs as barriers).
type Actor struct {
	eng  *Engine
	lane *lane
	name string
	// busyUntil is the first instant at which the actor is free.
	busyUntil Time
	// localNow is the actor-local clock while inside a handler.
	localNow Time
	inside   bool
}

// NewActor returns an actor bound to engine eng, owning a fresh lane. The
// name is used in panics and debugging output only.
func NewActor(eng *Engine, name string) *Actor {
	return &Actor{eng: eng, lane: eng.newLane(), name: name}
}

// Name returns the actor's debug name.
func (a *Actor) Name() string { return a.name }

// Engine returns the engine the actor is bound to.
func (a *Actor) Engine() *Engine { return a.eng }

// base returns the actor's view of the serial clock: the lane-local clock
// while the lane executes inside a parallel window (where Engine.Now is
// frozen at the window start), the engine clock otherwise (where the two
// agree).
func (a *Actor) base() Time {
	if a.lane.executing {
		return a.lane.now
	}
	return a.eng.now
}

// Now returns the actor-local clock: inside a handler this includes time
// charged so far; outside it is the instant the actor becomes free.
func (a *Actor) Now() Time {
	if a.inside {
		return a.localNow
	}
	if b := a.base(); a.busyUntil <= b {
		return b
	}
	return a.busyUntil
}

// Post schedules fn on the actor at or after absolute time at. If the actor
// is still busy at that instant the handler is delayed until it frees up, so
// handlers on one actor never overlap in virtual time.
//
// During a parallel window, Post is lane-local: it may only be called from
// this actor's own executing handlers (self-posts, quantum pumps, timer
// continuations). Cross-actor messages sent from inside a handler go
// through PostTo on the sending actor.
func (a *Actor) Post(at Time, fn func()) { a.PostTimer(at, fn) }

// PostTimer is Post returning a handle that can stop the event. Neither
// allocates once the lane's free list is warm.
func (a *Actor) PostTimer(at Time, fn func()) Timer {
	var ev *event
	if a.eng.inWindow {
		a.ownLane("Post to", " (use PostTo from the sending actor)")
		ev = a.lane.postLocal(at, fn, a)
	} else {
		ev = a.eng.schedule(a.lane, at, fn, a)
	}
	return Timer{ev: ev, gen: ev.gen}
}

// ownLane panics unless the actor's lane runs in the current parallel
// window: only its own handlers may touch the lane.
func (a *Actor) ownLane(op, hint string) {
	if !a.lane.executing {
		panic("simtime: " + op + " " + a.name + " from a parallel window it is not part of" + hint)
	}
}

// Timer is a handle on one event posted by PostTimer.
type Timer struct {
	ev  *event
	gen uint32 // ev.gen when posted
}

// Stop removes the timer's event from its lane if it is still pending,
// and reports whether it did. A stopped event runs nothing: it leaves
// Pending at once and never moves Now, Steps or its actor's busy clock.
// A timer that already ran or was stopped stops nothing, even once its
// event struct is recycled. In a parallel window only the timer's own
// actor may stop it.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.idx < 0 {
		return false
	}
	a, i := ev.actor, ev.idx
	l, e := a.lane, a.eng
	if e.inWindow {
		a.ownLane("Stop on", "")
	}
	l.recycle(l.remove(i))
	if !e.inWindow { // a window recounts its pending events from the heaps
		e.nPending--
		if i == 0 && l != e.stepping {
			e.mergeFix(l)
		}
	}
	return true
}

// PostAfter schedules fn on the actor d after the current virtual time.
func (a *Actor) PostAfter(d Time, fn func()) {
	if a.lane.executing {
		a.Post(a.lane.now+d, fn)
		return
	}
	a.Post(a.eng.now+d, fn)
}

// PostTo schedules fn on actor dst at absolute time at, from a handler
// running on actor a — the cross-lane message primitive (network
// delivery). Serially it is identical to dst.Post(at, fn). During a
// parallel window the event is buffered on the sending lane and delivered
// by the commit phase with its serial-equivalent sequence number; at must
// then lie at or beyond the window bound, which the conservative horizon
// (the minimum cross-lane message latency) guarantees for any
// latency-respecting model.
func (a *Actor) PostTo(dst *Actor, at Time, fn func()) {
	e := a.eng
	if !e.inWindow || dst.lane == a.lane {
		dst.Post(at, fn)
		return
	}
	l := a.lane
	if !l.executing {
		panic("simtime: PostTo from " + a.name + " outside its own executing handler")
	}
	if at < e.windowBoundAt {
		panic("simtime: PostTo from " + a.name + " to " + dst.name +
			" inside the safe horizon — cross-lane latency below the configured window bound")
	}
	ev := l.alloc(at, 0, fn, dst)
	l.pushes = append(l.pushes, pushEntry{ev: ev, dst: dst.lane})
}

// Commit runs fn in serial merge order: immediately when execution is
// already serial (the default, barriers, setup code), or deferred to the
// window's commit phase when the actor's lane is executing in parallel —
// where all commit closures apply in the exact (at, seq) order of the
// events that issued them. Handlers wrap their mutations of cluster-shared
// state (stats series, trace log, cohort accounting) in Commit, with the
// values to record captured at execution time.
func (a *Actor) Commit(fn func()) {
	if a.eng.inWindow {
		a.ownLane("Commit on", "")
		a.lane.commits = append(a.lane.commits, fn)
		return
	}
	fn()
}

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
// installation must cost nothing. Callable from serial contexts only
// (barriers, setup code), never from inside a parallel window.
func (a *Actor) Mute(fn func()) {
	if a.eng.inWindow {
		panic("simtime: Mute on " + a.name + " during a parallel window")
	}
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
