package simtime

import (
	"fmt"
	"testing"
)

// timerRun is what a run of timerWorkload leaves observable.
type timerRun struct {
	now     Time
	steps   uint64
	pending int // at the mid-run checkpoint, after every stop
	busy    []Time
	log     []string
}

// timerWorkload runs four actors. Each first handler posts a timer far
// in the future plus a short one, and a descendant then stops the far
// timer and tries to stop the short one after it ran. Without timers
// the same handlers run with the timer calls left out.
func timerWorkload(t *testing.T, timers bool) timerRun {
	e := NewEngine()
	actors := make([]*Actor, 4)
	var log []string
	for i := range actors {
		actors[i] = NewActor(e, fmt.Sprintf("n%d", i))
	}
	for i, a := range actors {
		a.Post(Time(i)*Microsecond, func() {
			a.Charge(2 * Microsecond)
			var far, short Timer
			if timers {
				far = a.PostTimer(a.Now()+Millisecond, func() {
					a.Charge(Microsecond)
					log = append(log, fmt.Sprintf("n%d: stopped timer fired", i))
				})
				short = a.PostTimer(a.Now()+Microsecond, func() {})
			}
			a.Post(a.Now()+3*Microsecond, func() {
				a.Charge(Microsecond)
				if timers {
					if !far.Stop() {
						t.Errorf("n%d: Stop of a pending timer reported nothing stopped", i)
					}
					if far.Stop() || short.Stop() {
						t.Errorf("n%d: Stop of a stopped or fired timer stopped something", i)
					}
				}
				log = append(log, fmt.Sprintf("n%d@%v", i, a.Now()))
			})
		})
	}
	e.RunUntil(50 * Microsecond)
	r := timerRun{pending: e.Pending()}
	e.Run(0)
	r.now, r.steps, r.log = e.Now(), e.Steps(), log
	if !timers {
		// The short timers are the only events the timer-free run lacks.
		r.steps += uint64(len(actors))
	}
	for _, a := range actors {
		r.busy = append(r.busy, a.BusyUntil())
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after the drain", e.Pending())
	}
	return r
}

// TestTimerStopRunsNothing: a stopped timer leaves Pending when stopped
// and never moves Now, Steps or its actor's busy clock; a handle on an
// event that already ran, or whose struct was recycled for another
// event, stops nothing.
func TestTimerStopRunsNothing(t *testing.T) {
	want := timerWorkload(t, false)
	if got := timerWorkload(t, true); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stopped timers left a trace\n got %+v\nwant %+v", got, want)
	}

	// Stopping the earliest event re-sorts the heap: b's event must
	// still run before a's next one.
	e := NewEngine()
	a, b := NewActor(e, "a"), NewActor(e, "b")
	ran := ""
	tm := a.PostTimer(100, func() { ran += "stopped " })
	a.Post(200, func() { ran += "kept " })
	b.Post(150, func() { ran += "b " })
	if !tm.Stop() || e.Pending() != 2 {
		t.Fatalf("stopping the earliest event: pending=%d, want 2", e.Pending())
	}
	first := a.PostTimer(300, func() { ran += "first " })
	e.Run(0)
	if ran != "b kept first " || e.Now() != 300 || e.Steps() != 3 {
		t.Fatalf("ran %q now=%v steps=%d, want \"b kept first \" at 300 in 3 steps", ran, e.Now(), e.Steps())
	}
	// first's struct is back on the free list; the next timer reuses it.
	second := a.PostTimer(400, func() { ran += "second" })
	if second.ev != first.ev {
		t.Fatal("the free list did not recycle the fired timer's event")
	}
	if first.Stop() {
		t.Fatal("a stale handle stopped the recycled event")
	}
	e.Run(0)
	if ran != "b kept first second" {
		t.Fatalf("ran %q", ran)
	}
}

// TestTimerAllocations: with a warm free list, posting and stopping a
// timer allocates nothing.
func TestTimerAllocations(t *testing.T) {
	e := NewEngine()
	a := NewActor(e, "a")
	fn := func() {}
	a.PostTimer(10, fn).Stop()
	avg := testing.AllocsPerRun(200, func() {
		a.PostTimer(e.Now()+10, fn).Stop()
	})
	if avg > 0 {
		t.Fatalf("PostTimer+Stop allocates %.2f times, want 0", avg)
	}
}
