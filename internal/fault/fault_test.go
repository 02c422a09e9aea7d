package fault

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "crash:1@3000us;partition:0-3@1000us..2000us;slow:2x4@1000us..2000us"
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	// String renders the schedule, which is sorted by time.
	sorted := "partition:0-3@1000us..2000us;slow:2x4@1000us..2000us;crash:1@3000us"
	if got := p.String(); got != sorted {
		t.Fatalf("round trip: got %q want %q", got, sorted)
	}
	if len(p.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(p.Events))
	}
	if p.Events[0].Kind == Crash {
		t.Fatalf("events not sorted by time: %v first", p.Events[0])
	}
}

func TestParseUnits(t *testing.T) {
	p, err := Parse("crash:1@3ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Events[0].At; got != 3*simtime.Millisecond {
		t.Fatalf("3ms parsed as %d", got)
	}
	p, err = Parse("crash:1@500")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Events[0].At; got != 500*simtime.Microsecond {
		t.Fatalf("bare 500 should default to µs, got %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"crash:1",                     // no time
		"explode:1@3ms",               // unknown kind
		"partition:1@1ms..2ms",        // one endpoint
		"partition:0-1@2ms..1ms",      // empty window
		"slow:1x0@1ms..2ms;crash:zz@", // two broken events
		"crash:1@-5us",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	ok, _ := Parse("crash:3@1ms;slow:1x2@1ms..2ms")
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for spec, wantSub := range map[string]string{
		"crash:0@1ms":             "rank 0",
		"crash:9@1ms":             "outside",
		"partition:0-9@1ms..2ms":  "outside",
		"partition:2-2@1ms..2ms":  "itself",
		"crash:1@1ms;crash:1@2ms": "twice",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		err = p.Validate(4)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Validate(%q) = %v, want error containing %q", spec, err, wantSub)
		}
	}
}

func TestStateCrash(t *testing.T) {
	p, _ := Parse("crash:2@1000us")
	s := NewState(p)
	if s.Crashed(2, 999*simtime.Microsecond) {
		t.Fatal("crashed before its time")
	}
	if !s.Crashed(2, 1000*simtime.Microsecond) {
		t.Fatal("not crashed at its time")
	}
	if s.Crashed(1, 5000*simtime.Microsecond) {
		t.Fatal("wrong node crashed")
	}
	// A message in flight at the crash instant is dropped if it would
	// arrive after the node died.
	start := 990 * simtime.Microsecond
	arrive := 1005 * simtime.Microsecond
	if got, drop := s.Adjust(0, 2, start, arrive); !drop || got != arrive {
		t.Fatalf("Adjust to dead node = (%d, %v), want (%d, true)", got, drop, arrive)
	}
	// One that lands before the crash is delivered.
	if _, drop := s.Adjust(0, 2, start, 995*simtime.Microsecond); drop {
		t.Fatal("message landing before the crash was dropped")
	}
	// The dead node sends nothing.
	if _, drop := s.Adjust(2, 0, 1100*simtime.Microsecond, 1110*simtime.Microsecond); !drop {
		t.Fatal("send from a dead node was delivered")
	}
}

func TestStatePartitionAndSlow(t *testing.T) {
	p, _ := Parse("partition:0-1@1000us..2000us;slow:3x4@1000us..2000us")
	s := NewState(p)
	// Partitioned send: held at the partition, delivered at the heal
	// instant (store-and-forward).
	start := 1500 * simtime.Microsecond
	arrive := 1510 * simtime.Microsecond
	got, drop := s.Adjust(0, 1, start, arrive)
	want := 2000 * simtime.Microsecond
	if drop || got != want {
		t.Fatalf("partitioned Adjust = (%d, %v), want (%d, false)", got, drop, want)
	}
	// Symmetric.
	if got2, _ := s.Adjust(1, 0, start, arrive); got2 != want {
		t.Fatalf("partition not symmetric: %d vs %d", got2, want)
	}
	// Outside the window: untouched.
	if got3, _ := s.Adjust(0, 1, 2500*simtime.Microsecond, 2510*simtime.Microsecond); got3 != 2510*simtime.Microsecond {
		t.Fatalf("healed partition still delaying: %d", got3)
	}
	// Unrelated pair: untouched.
	if got4, _ := s.Adjust(0, 2, start, arrive); got4 != arrive {
		t.Fatalf("partition leaked to unrelated pair: %d", got4)
	}
	// Slow node: wire portion multiplied.
	got5, _ := s.Adjust(3, 2, start, arrive)
	if want5 := start + (arrive-start)*4; got5 != want5 {
		t.Fatalf("slow Adjust = %d, want %d", got5, want5)
	}
	// A send that would arrive after the heal instant anyway keeps its
	// fault-free arrival time.
	lateStart := 1990 * simtime.Microsecond
	lateArrive := 2200 * simtime.Microsecond
	if got6, _ := s.Adjust(0, 1, lateStart, lateArrive); got6 != lateArrive {
		t.Fatalf("late in-window Adjust = %d, want %d", got6, lateArrive)
	}
}

func TestStateWindowQueries(t *testing.T) {
	p, _ := Parse("partition:0-1@1000us..2000us;slow:3x4@1500us..2500us;crash:2@3000us")
	s := NewState(p)
	if !s.Partitioned(0, 1, 1500*simtime.Microsecond) || !s.Partitioned(1, 0, 1000*simtime.Microsecond) {
		t.Fatal("open partition window not reported")
	}
	if s.Partitioned(0, 1, 2000*simtime.Microsecond) {
		t.Fatal("healed partition still reported (Until is exclusive)")
	}
	if s.Partitioned(0, 2, 1500*simtime.Microsecond) {
		t.Fatal("partition leaked to an unrelated pair")
	}
	if !s.Isolated(1, 1500*simtime.Microsecond) || s.Isolated(3, 1500*simtime.Microsecond) {
		t.Fatal("Isolated wrong")
	}
	if got := s.ActiveAt(1600 * simtime.Microsecond); len(got) != 2 {
		t.Fatalf("ActiveAt(1600us) = %d events, want 2 (partition + slow)", len(got))
	}
	if got := s.ActiveAt(2200 * simtime.Microsecond); len(got) != 1 || got[0].Kind != Slow {
		t.Fatalf("ActiveAt(2200us) = %v, want just the slow window", got)
	}
	// Transition boundaries in order: 1000, 1500, 2000, 2500, 3000.
	wantBounds := []simtime.Time{
		1000 * simtime.Microsecond, 1500 * simtime.Microsecond,
		2000 * simtime.Microsecond, 2500 * simtime.Microsecond,
		3000 * simtime.Microsecond,
	}
	at := simtime.Time(0)
	for _, want := range wantBounds {
		next, ok := s.NextTransition(at)
		if !ok || next != want {
			t.Fatalf("NextTransition(%d) = (%d, %v), want %d", at, next, ok, want)
		}
		at = next
	}
	if _, ok := s.NextTransition(at); ok {
		t.Fatal("transitions past the plan's end")
	}
}

// TestAdjustPartitionFIFO is the store-and-forward healing property:
// for any partition plan and any per-pair sequence of sends whose
// fault-free arrivals are ordered (the per-link serialization bip
// enforces), the adjusted deliveries must preserve that order — two
// sends held by the window must not reorder against each other or
// against post-heal traffic.
func TestAdjustPartitionFIFO(t *testing.T) {
	rng := newTestRNG(0x5eed)
	for trial := 0; trial < 200; trial++ {
		// Random plan: 1-3 partition windows over a 4-node cluster.
		var specs []string
		for w, nw := 0, 1+rng.intn(3); w < nw; w++ {
			a := rng.intn(4)
			b := (a + 1 + rng.intn(3)) % 4
			at := 100 + rng.intn(3000)
			until := at + 100 + rng.intn(3000)
			specs = append(specs, sprintfPartition(a, b, at, until))
		}
		p, err := Parse(strings.Join(specs, ";"))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s := NewState(p)
		// Random per-pair send sequence with increasing fault-free
		// arrivals (starts increase too; wire time varies per send).
		src, dst := rng.intn(4), 0
		for dst = rng.intn(4); dst == src; dst = rng.intn(4) {
		}
		start := simtime.Time(rng.intn(500)) * simtime.Microsecond
		arrive := start + simtime.Time(1+rng.intn(50))*simtime.Microsecond
		prev := simtime.Time(-1)
		for i := 0; i < 40; i++ {
			got, _ := s.Adjust(src, dst, start, arrive)
			if got < prev {
				t.Fatalf("trial %d: FIFO violated on %d->%d: send(start=%d arrive=%d) delivered at %d, after %d",
					trial, src, dst, start, arrive, got, prev)
			}
			prev = got
			step := simtime.Time(1+rng.intn(200)) * simtime.Microsecond
			start += step
			next := start + simtime.Time(1+rng.intn(50))*simtime.Microsecond
			if next <= arrive { // per-link serialization: arrivals are ordered
				next = arrive + simtime.Time(1+rng.intn(10))*simtime.Microsecond
			}
			arrive = next
		}
	}
}

func sprintfPartition(a, b, atUS, untilUS int) string {
	return "partition:" + strconv.Itoa(a) + "-" + strconv.Itoa(b) + "@" +
		strconv.Itoa(atUS) + "us.." + strconv.Itoa(untilUS) + "us"
}

// testRNG is a tiny deterministic xorshift generator so the property
// test explores the same trials on every run.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed | 1} }

func (r *testRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// TestParseRejectsOverflowingTime: 9999999999999 s does not fit in an
// int64 of nanoseconds; it used to wrap to a bogus crash instant.
func TestParseRejectsOverflowingTime(t *testing.T) {
	if p, err := Parse("crash:1@9999999999999s"); err == nil {
		t.Fatalf("Parse accepted an overflowing time as %v", p)
	}
}

// TestStringKeepsSubMicrosecondTimes: a window bounded by times that
// are not whole µs used to render truncated to "@1us..1us", which
// Parse then rejects as empty.
func TestStringKeepsSubMicrosecondTimes(t *testing.T) {
	p, err := Parse("partition:1-0@1500ns..1900ns")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "partition:1-0@1500ns..1900ns"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// FuzzParse: Parse never panics, and every plan it accepts renders to a
// spec that parses back to the same plan.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"crash:1@3000",
		"partition:1-0@3000..9000;partition:1-2@3000..9000;partition:1-3@3000..9000",
		"slow:1x20@0..40000",
		"partition:1-0@1500ns..1900ns",
		"crash:1@9999999999999s",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("Parse(%q) = %v, but its rendering parses to %v", spec, p, again)
		}
	})
}
