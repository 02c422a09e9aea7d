package simtime

// A lane is one actor's private event queue (plus the engine's ambient
// lane 0 for events scheduled through Engine.At). Decomposing the old
// global event heap into lanes gives every node of the simulated
// cluster its own queue with the three step primitives —
// HasPendingEvents, PeekNextEventTime, ProcessNextEvent — while the
// engine performs a deterministic earliest-(at, seq) merge across
// lanes. Because the global sequence counter is preserved and the merge
// comparator is the old heap comparator, the merged pop order is
// provably identical to the monolithic heap's order (pinned by
// TestLaneMergeMatchesReference).
//
// The lane heap is a concrete index-based binary heap: no
// container/heap interface, no boxing through any, and popped event
// structs are recycled through a per-lane free list, so the steady
// state of the kernel allocates nothing per event (pinned by
// TestKernelStepAllocations).

// event is one scheduled closure. When actor is non-nil the event was
// posted through Actor.Post and the busy-clock prologue/epilogue runs
// around fn without a wrapper closure. idx is the event's position in
// its lane heap, -1 once popped or removed; gen counts the struct's
// recycles, so a Timer handle outliving its event stops nothing.
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

// keyLess compares two (at, seq) keys the same way.
func keyLess(at1 Time, seq1 uint64, at2 Time, seq2 uint64) bool {
	if at1 != at2 {
		return at1 < at2
	}
	return seq1 < seq2
}

type lane struct {
	eng *Engine
	id  int
	// heap is the lane's pending events, a concrete binary min-heap
	// ordered by eventLess.
	heap []*event
	// free recycles event structs popped from this lane.
	free []*event
	// bkt/bpos locate the lane in the engine's calendar merge: the
	// bucket index and the lane's slot within that bucket. bkt is -1
	// while the lane is empty (untracked).
	bkt  int
	bpos int

	// now is the lane-local clock: the timestamp of the event currently
	// (or last) executing on this lane. During serial execution it
	// always equals Engine.Now at the same instant; during a parallel
	// window it is the lane's private view of the serial clock.
	now Time
	// executing marks the lane as running inside a parallel window on a
	// worker goroutine (see parallel.go).
	executing bool

	// Parallel-window recording state (parallel.go): the ordered log of
	// events this lane executed in the current window, the events they
	// pushed, and the commit closures they deferred. Flat slices reused
	// across windows.
	recs    []execRec
	pushes  []pushEntry
	commits []func()
	tempSeq uint64
	cursor  int
}

func (e *Engine) newLane() *lane {
	l := &lane{eng: e, id: len(e.lanes), bkt: -1}
	e.lanes = append(e.lanes, l)
	return l
}

// HasPendingEvents reports whether the lane has queued events — the
// first step primitive.
func (l *lane) HasPendingEvents() bool { return len(l.heap) > 0 }

// PeekNextEventTime returns the (at, seq) key of the lane's earliest
// pending event — the second step primitive. The lane must be
// non-empty.
func (l *lane) PeekNextEventTime() (Time, uint64) {
	e := l.heap[0]
	return e.at, e.seq
}

// ProcessNextEvent pops and executes the lane's earliest pending event,
// advancing the lane-local clock to its timestamp — the third step
// primitive. The popped event is returned so the caller decides when to
// recycle it (immediately in serial execution, at commit time in a
// parallel window).
func (l *lane) ProcessNextEvent() *event {
	ev := l.remove(0)
	l.exec(ev)
	return ev
}

// exec runs one event on this lane, with the actor busy-clock
// prologue/epilogue inlined for actor-posted events.
func (l *lane) exec(ev *event) {
	l.now = ev.at
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
}

// alloc takes an event struct from the lane's free list (or the heap of
// last resort: Go's) and initializes it.
func (l *lane) alloc(at Time, seq uint64, fn func(), a *Actor) *event {
	var ev *event
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.actor, ev.idx = at, seq, fn, a, -1
	return ev
}

// recycle returns a finished event to the free list, dropping its
// closure so it does not pin captured state.
func (l *lane) recycle(ev *event) {
	ev.fn, ev.actor = nil, nil
	ev.gen++
	l.free = append(l.free, ev)
}

// push inserts ev into the lane heap.
func (l *lane) push(ev *event) {
	ev.idx = len(l.heap)
	l.heap = append(l.heap, ev)
	l.siftUp(ev.idx)
}

// remove takes the event at heap position i out of the lane heap;
// remove(0) pops the lane's earliest event.
func (l *lane) remove(i int) *event {
	h := l.heap
	ev := h[i]
	last := len(h) - 1
	h[i] = h[last]
	h[i].idx = i
	h[last] = nil
	l.heap = h[:last]
	if i < last {
		l.siftUp(i)
		l.siftDown(i)
	}
	ev.idx = -1
	return ev
}

func (l *lane) siftUp(i int) {
	h := l.heap
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

func (l *lane) siftDown(i int) {
	h := l.heap
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

// The calendar merge: the engine's index of non-empty lanes, keyed by
// each lane's head-event key. Instead of one binary heap over every
// lane (an O(log lanes) sift on every head change), lanes hash into
// time buckets of power-of-two width — bucket(at) = (at >> shift) &
// mask — and the minimum is found by scanning forward from a monotone
// floor, the timestamp of the last dequeued event. Each bucket is
// itself a small (at, seq) min-heap, so a scan peeks one lane per
// bucket and maintenance costs O(log occupancy): with the width tuned
// to the mean head gap that occupancy is O(1), flattening the
// per-event merge constant, and under pathological clustering (many
// lanes in lockstep at one timestamp) it degrades exactly to the old
// global-heap cost rather than below it. Two properties make the
// monotone scan valid: engine time never goes backward (schedule
// clamps to Now, and window commits only raise it), so every tracked
// key is >= floor; and events with equal timestamps share a bucket, so
// the (at, seq) tie-break — the old heap comparator, still the one
// total order — is decided locally. The cached min short-circuits the
// common case where nothing cheaper arrived since the last scan.

// calendar is the engine's merge structure over non-empty lane heads.
type calendar struct {
	// buckets[i] is a min-heap (by cached key) of the tracked lanes
	// whose head event falls in time slice i; len(buckets) is a power
	// of two. Lanes carry their bucket index and heap position
	// (lane.bkt, lane.bpos).
	buckets [][]calEntry
	shift   uint // bucket width is 1 << shift nanoseconds
	mask    int  // len(buckets) - 1
	count   int  // tracked (non-empty) lanes
	// min caches the lane holding the global minimum key; nil means
	// unknown (recomputed lazily by minLane).
	min *lane
	// floor is a monotone lower bound on every tracked key: the
	// timestamp of the last event dequeued (or the engine clock at the
	// last rebuild). Scans start at its bucket.
	floor Time
	// ops counts head-change operations since the last retune; the
	// width is re-estimated every few thousand so the bucket occupancy
	// tracks the workload's event spacing.
	ops int
}

// calEntry is one tracked lane in a bucket heap, with a copy of the
// lane's head key so that sifts compare keys without dereferencing the
// lane and its head event. The copy equals the head key whenever no
// event is executing; Engine.Step lets it go stale for the executing
// lane only, and refreshes it once when the event returns.
type calEntry struct {
	at  Time
	seq uint64
	l   *lane
}

func (x *calEntry) less(y *calEntry) bool { return keyLess(x.at, x.seq, y.at, y.seq) }

func (c *calendar) bucketOf(at Time) int {
	return int(at>>c.shift) & c.mask
}

// entry returns tracked lane l's bucket entry.
func (c *calendar) entry(l *lane) *calEntry { return &c.buckets[l.bkt][l.bpos] }

func (c *calendar) insert(l *lane) {
	h := l.heap[0]
	b := c.bucketOf(h.at)
	l.bkt, l.bpos = b, len(c.buckets[b])
	c.buckets[b] = append(c.buckets[b], calEntry{at: h.at, seq: h.seq, l: l})
	c.siftUp(b, l.bpos)
	c.count++
	if c.beatsMin(h) {
		c.min = l
	}
}

// beatsMin reports whether head key h is below the cached minimum's key;
// false while the minimum is unknown.
func (c *calendar) beatsMin(h *event) bool {
	if c.min == nil {
		return false
	}
	m := c.entry(c.min)
	return keyLess(h.at, h.seq, m.at, m.seq)
}

func (c *calendar) remove(l *lane) {
	b, i := l.bkt, l.bpos
	s := c.buckets[b]
	last := len(s) - 1
	s[i] = s[last]
	s[i].l.bpos = i
	s[last] = calEntry{}
	c.buckets[b] = s[:last]
	l.bkt = -1
	c.count--
	if i < last {
		c.siftUp(b, i)
		c.siftDown(b, i)
	}
	if c.min == l {
		c.min = nil
	}
}

func (c *calendar) siftUp(b, i int) {
	s := c.buckets[b]
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		s[i].l.bpos, s[p].l.bpos = i, p
		i = p
	}
}

func (c *calendar) siftDown(b, i int) {
	s := c.buckets[b]
	n := len(s)
	for {
		least := i
		if x := 2*i + 1; x < n && s[x].less(&s[least]) {
			least = x
		}
		if x := 2*i + 2; x < n && s[x].less(&s[least]) {
			least = x
		}
		if least == i {
			return
		}
		s[i], s[least] = s[least], s[i]
		s[i].l.bpos, s[least].l.bpos = i, least
		i = least
	}
}

// mergeFix restores lane l's calendar position after its head event
// changed: inserted when it became non-empty, removed when it drained,
// re-keyed and rebucketed otherwise. Amortized O(1).
func (e *Engine) mergeFix(l *lane) {
	c := &e.cal
	if len(l.heap) == 0 {
		if l.bkt >= 0 {
			c.remove(l)
		}
		return
	}
	c.ops++
	if l.bkt < 0 {
		if len(c.buckets) == 0 || c.count >= 2*len(c.buckets) {
			e.calRebuild() // re-inserts every non-empty lane, including l
			return
		}
		c.insert(l)
		return
	}
	h := l.heap[0]
	if b := c.bucketOf(h.at); b != l.bkt {
		// remove clears the cached min if l held it; insert re-crowns l
		// only by comparing against a still-valid cache.
		c.remove(l)
		c.insert(l)
		return
	}
	x := c.entry(l)
	up := keyLess(h.at, h.seq, x.at, x.seq)
	x.at, x.seq = h.at, h.seq
	if up {
		c.siftUp(l.bkt, l.bpos)
	} else {
		c.siftDown(l.bkt, l.bpos)
	}
	if c.min == l {
		// Head changed in place; it may no longer be the minimum.
		c.min = nil
	} else if c.beatsMin(h) {
		c.min = l
	}
}

// minLane returns the lane holding the earliest (at, seq) head key, or
// nil when no lane has pending events. It advances the scan floor to
// the returned key, which the monotonicity of engine time justifies.
func (e *Engine) minLane() *lane {
	c := &e.cal
	if c.min != nil {
		return c.min
	}
	if c.count == 0 {
		return nil
	}
	if c.ops > 8*c.count+4096 {
		e.calRebuild()
	}
	c.min = c.scan()
	c.floor = c.entry(c.min).at
	return c.min
}

// scan locates the minimum head key: walk one calendar year of buckets
// forward from the floor, peeking each bucket's heap top. A top inside
// the bucket's current time slice is the global minimum — every
// tracked key is >= floor, later buckets of the year hold later
// timestamps, aliased entries from later years sort after in-slice
// ones, and equal timestamps share a bucket so the (at, seq) tie-break
// is decided by the bucket heap. If a whole year is empty, fall back
// to a direct sweep of the bucket tops.
func (c *calendar) scan() *lane {
	n := len(c.buckets)
	start := int64(c.floor >> c.shift)
	for t := 0; t < n; t++ {
		idx := int(start+int64(t)) & c.mask
		s := c.buckets[idx]
		if len(s) == 0 {
			continue
		}
		if end := Time(start+int64(t)+1) << c.shift; s[0].at < end {
			return s[0].l
		}
	}
	var best *calEntry
	for _, s := range c.buckets {
		if len(s) > 0 && (best == nil || s[0].less(best)) {
			best = &s[0]
		}
	}
	return best.l
}

// calRebuild re-sizes and re-tunes the calendar from the live lane set:
// the bucket count is the power of two covering the non-empty lanes and
// the bucket width is the power of two nearest the mean head gap, so a
// dequeue typically lands on a bucket holding one lane. Deterministic —
// both parameters are pure functions of the queue content.
func (e *Engine) calRebuild() {
	c := &e.cal
	n := 0
	minAt, maxAt := Time(0), Time(0)
	for _, l := range e.lanes {
		if len(l.heap) == 0 {
			continue
		}
		at := l.heap[0].at
		if n == 0 || at < minAt {
			minAt = at
		}
		if n == 0 || at > maxAt {
			maxAt = at
		}
		n++
	}
	size := 8
	for size < n {
		size *= 2
	}
	shift := uint(0)
	if n > 0 {
		if gap := (maxAt - minAt) / Time(n); gap > 0 {
			for shift < 40 && Time(1)<<(shift+1) <= gap {
				shift++
			}
		}
	}
	if size != len(c.buckets) {
		c.buckets = make([][]calEntry, size)
	} else {
		for i := range c.buckets {
			c.buckets[i] = c.buckets[i][:0]
		}
	}
	c.shift, c.mask, c.count, c.min, c.ops = shift, size-1, 0, nil, 0
	c.floor = e.now
	for _, l := range e.lanes {
		l.bkt = -1
		if len(l.heap) > 0 {
			c.insert(l)
		}
	}
}

// rebuildMerge reconstructs the calendar and the pending count from
// scratch — O(lanes), used once per parallel window, where incremental
// fixes would have to reason about many simultaneously-stale lane
// heads.
func (e *Engine) rebuildMerge() {
	e.nPending = 0
	for _, l := range e.lanes {
		e.nPending += len(l.heap)
	}
	e.calRebuild()
}
