package simtime

import (
	"sync"
	"sync/atomic"
)

// The conservative time-window executor. One window works like this:
//
//  1. The engine finds the earliest pending key (T, s). If it belongs to
//     the ambient lane the event is a barrier — it may read or mutate any
//     lane's state (load reports, balancer rounds, driver arrivals) — and
//     runs as a plain serial Step.
//  2. Otherwise the window bound B is the earliest of (T + horizon, 0)
//     and the ambient lane's head key (and the RunUntil deadline, when
//     set). The horizon is the minimum cross-lane message latency, so no
//     event executed in this window can schedule work on another lane
//     before B: events on different lanes inside [T, B) are causally
//     independent and may run concurrently.
//  3. Every lane whose head key precedes B executes its own events past
//     the bound on a worker goroutine — including same-lane descendants
//     pushed during the window, which join the lane's heap immediately
//     with temporary sequence numbers that preserve their lane-local
//     order. Cross-lane pushes (PostTo) and shared-state mutations
//     (Commit) are recorded per lane, in execution order.
//  4. The commit phase replays the per-lane execution logs in global
//     (at, seq) merge order on the driving goroutine. Replaying an event
//     assigns the next global sequence numbers to its recorded pushes in
//     push order — the exact numbering a serial run would have produced,
//     because the replay order is the serial execution order — and runs
//     its commit closures. Cross-lane events are then delivered with
//     their final keys.
//
// After a window commits, every queue, clock, counter and piece of
// committed shared state is byte-identical to a serial run of the same
// schedule — which is what makes traces and stats bit-identical at any
// worker count (pinned by TestParallelMatchesSerial and the scenario
// workers-identity tests).

// tempSeqBase keys same-lane descendants above every real sequence
// number for the duration of a window. A descendant pushed during the
// window would serially receive a sequence number greater than that of
// any event queued before the window, so ordering it after all real
// keys at equal timestamps is already the serial order; descendants
// order among themselves by lane-local push order, which the commit
// replay proves equal to their serial relative order.
const tempSeqBase = uint64(1) << 62

// execRec is one executed event in a lane's window log, with the spans
// of the lane's push and commit buffers it produced.
type execRec struct {
	ev             *event
	pushLo, pushHi int
	comLo, comHi   int
}

// pushEntry is one event pushed during a window. dst is nil for a
// same-lane descendant (already in the lane's heap under a temporary
// sequence number, renumbered at commit) and the destination lane for a
// cross-lane PostTo (delivered at commit).
type pushEntry struct {
	ev  *event
	dst *lane
}

// SetParallel configures the worker pool: workers <= 1 keeps the exact
// serial executor; workers > 1 enables windowed parallel execution with
// the given conservative horizon — the minimum cross-lane message
// latency of the model driving this engine. Call before running.
func (e *Engine) SetParallel(workers int, horizon Time) {
	if workers < 1 {
		workers = 1
	}
	if workers > 1 && horizon <= 0 {
		panic("simtime: parallel execution needs a positive horizon")
	}
	e.workers = workers
	e.horizon = horizon
}

// Workers returns the configured worker count (1 = serial).
func (e *Engine) Workers() int {
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// WindowStats describes how the parallel executor actually ran: how the
// event stream decomposed into windows and how wide they were. The
// schedule is deterministic, so these counts are too — they are the
// numbers to look at when a parallel run shows no speedup (a mean
// participant count near 1 means the workload serializes on the
// horizon, not on the locks).
type WindowStats struct {
	// AmbientSteps counts barrier events run serially between windows.
	AmbientSteps uint64
	// SingleLaneWindows ran on the driving goroutine (one participant).
	SingleLaneWindows uint64
	// ParallelWindows ran on the worker pool.
	ParallelWindows uint64
	// ParallelEvents is the events executed inside parallel windows;
	// Participants sums the lane count over those windows.
	ParallelEvents uint64
	Participants   uint64
}

// WindowStats returns the executor's window accounting so far. All
// zeros on a serial engine.
func (e *Engine) WindowStats() WindowStats { return e.wstats }

// postLocal queues a same-lane descendant during a parallel window.
func (l *lane) postLocal(at Time, fn func(), a *Actor) *event {
	if at < l.now {
		at = l.now
	}
	l.tempSeq++
	ev := l.alloc(at, tempSeqBase+l.tempSeq, fn, a)
	l.push(ev)
	l.pushes = append(l.pushes, pushEntry{ev: ev})
	return ev
}

// runParallel is the window loop behind Run and RunUntil for workers > 1.
func (e *Engine) runParallel(limit uint64, deadline Time, bounded bool) uint64 {
	var executed uint64
	for limit == 0 || executed < limit {
		min := e.minLane()
		if min == nil {
			break
		}
		head := min.heap[0]
		if bounded && head.at > deadline {
			break
		}
		if min == e.ambient {
			e.Step()
			executed++
			e.wstats.AmbientSteps++
			continue
		}
		boundAt, boundSeq := head.at+e.horizon, uint64(0)
		if e.ambient.HasPendingEvents() {
			if at, seq := e.ambient.PeekNextEventTime(); keyLess(at, seq, boundAt, boundSeq) {
				boundAt, boundSeq = at, seq
			}
		}
		if bounded && keyLess(deadline+1, 0, boundAt, boundSeq) {
			boundAt, boundSeq = deadline+1, 0
		}
		executed += e.runWindow(boundAt, boundSeq)
	}
	return executed
}

// runWindow executes every event with key below (boundAt, boundSeq) and
// commits the results, returning the number of events executed.
func (e *Engine) runWindow(boundAt Time, boundSeq uint64) uint64 {
	ps := e.participants[:0]
	for _, l := range e.lanes {
		if l == e.ambient || len(l.heap) == 0 {
			continue
		}
		if at, seq := l.PeekNextEventTime(); keyLess(at, seq, boundAt, boundSeq) {
			ps = append(ps, l)
		}
	}
	e.participants = ps

	if len(ps) == 1 {
		// Single-lane window: its events are the global minimum until
		// the bound, so plain serial steps execute the identical
		// sequence with no recording overhead.
		l := ps[0]
		var n uint64
		for l.HasPendingEvents() {
			if at, seq := l.PeekNextEventTime(); !keyLess(at, seq, boundAt, boundSeq) {
				break
			}
			e.Step()
			n++
		}
		e.wstats.SingleLaneWindows++
		return n
	}
	e.wstats.ParallelWindows++
	e.wstats.Participants += uint64(len(ps))

	e.windowBoundAt = boundAt
	e.inWindow = true
	for _, l := range ps {
		l.executing = true
	}
	nw := e.workers
	if nw > len(ps) {
		nw = len(ps)
	}
	var next atomic.Int64
	var panicked atomic.Pointer[any]
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			// Re-raise worker panics on the driving goroutine, so model
			// bugs (horizon violations, barrier misuse) surface as normal
			// panics of the Run call instead of killing the process.
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ps) {
					return
				}
				ps[i].runLaneWindow(boundAt, boundSeq)
			}
		}()
	}
	wg.Wait()
	e.inWindow = false
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	for _, l := range ps {
		l.executing = false
	}

	n := e.commitWindow(ps)
	e.wstats.ParallelEvents += n
	for _, l := range ps {
		l.recs, l.pushes, l.commits = l.recs[:0], l.pushes[:0], l.commits[:0]
		l.tempSeq = 0
	}
	e.rebuildMerge()
	return n
}

// runLaneWindow executes this lane's events up to the window bound on a
// worker goroutine, logging each executed event with the pushes and
// commits it produced.
func (l *lane) runLaneWindow(boundAt Time, boundSeq uint64) {
	for l.HasPendingEvents() {
		if at, seq := l.PeekNextEventTime(); !keyLess(at, seq, boundAt, boundSeq) {
			return
		}
		ev := l.remove(0)
		l.recs = append(l.recs, execRec{ev: ev, pushLo: len(l.pushes), comLo: len(l.commits)})
		ri := len(l.recs) - 1
		l.exec(ev)
		l.recs[ri].pushHi = len(l.pushes)
		l.recs[ri].comHi = len(l.commits)
	}
}

// commitWindow replays the participants' execution logs in global
// (at, seq) order: sequence assignment for every push, commit closures,
// step accounting and event recycling all happen exactly as a serial run
// would have interleaved them. A record's key is always resolved by the
// time it reaches a cursor head: window-start events carry real sequence
// numbers, and a descendant's parent precedes it in the same lane's log,
// so the parent's replay assigned the descendant's number already.
func (e *Engine) commitWindow(ps []*lane) uint64 {
	e.inCommit = true
	h := e.cursorHeap[:0]
	for _, l := range ps {
		l.cursor = 0
		h = append(h, l)
	}
	e.cursorHeap = h
	cursorLess := func(a, b *lane) bool {
		return eventLess(a.recs[a.cursor].ev, b.recs[b.cursor].ev)
	}
	siftDown := func(i int) {
		n := len(h)
		for {
			least := i
			if c := 2*i + 1; c < n && cursorLess(h[c], h[least]) {
				least = c
			}
			if c := 2*i + 2; c < n && cursorLess(h[c], h[least]) {
				least = c
			}
			if least == i {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	deferred := e.deferred[:0]
	var executed uint64
	lastAt := e.now
	for len(h) > 0 {
		l := h[0]
		r := &l.recs[l.cursor]
		for i := r.pushLo; i < r.pushHi; i++ {
			p := l.pushes[i]
			e.seq++
			p.ev.seq = e.seq
			if p.dst != nil {
				deferred = append(deferred, p)
			}
		}
		for i := r.comLo; i < r.comHi; i++ {
			l.commits[i]()
			l.commits[i] = nil
		}
		e.nSteps++
		executed++
		lastAt = r.ev.at
		l.recycle(r.ev)
		l.cursor++
		if l.cursor < len(l.recs) {
			siftDown(0)
		} else {
			last := len(h) - 1
			h[0] = h[last]
			h[last] = nil
			h = h[:last]
			if last > 0 {
				siftDown(0)
			}
		}
	}
	e.cursorHeap = h[:0]
	e.now = lastAt
	e.inCommit = false

	// Every temporary sequence number is now resolved, so cross-lane
	// events can join their destination heaps with final keys. The merge
	// heap is rebuilt wholesale by the caller.
	for i, p := range deferred {
		p.dst.push(p.ev)
		deferred[i] = pushEntry{}
	}
	e.deferred = deferred[:0]
	return executed
}
