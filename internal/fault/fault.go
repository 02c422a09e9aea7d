// Package fault models node and link failures for the simulated PM2
// cluster: fail-stop node crashes, temporary network partitions and
// slow links. A Plan is a deterministic schedule of such events,
// parsed from a compact textual spec; State is the runtime view the
// network layer consults on every send (bip.Network.SetFaults) and the
// runtime consults when it gates a dead node's lane.
//
// Semantics:
//
//   - crash:N@T — node N fail-stops at virtual time T. Its lane drains
//     to a tombstone (the runtime executes nothing on it after T) and
//     every message that would arrive at or after T is dropped. The
//     node's memory remains readable by the simulator, which is what
//     lets the heartbeat-detection path evacuate its resident threads.
//   - partition:A-B@T1..T2 — messages between A and B (either
//     direction) whose send starts inside [T1, T2) are held and
//     delivered at the heal instant T2 (or at their fault-free arrival
//     time, if that is later), modeling store-and-forward recovery.
//     Nothing is lost, and because max(arrive, T2) is monotone in the
//     fault-free arrival time, per-pair FIFO delivery order survives
//     the healing: two in-window sends cannot reorder against each
//     other or against post-heal traffic.
//   - slow:NxF@T1..T2 — messages to or from node N whose send starts
//     inside [T1, T2) take F times their wire time.
//
// Times accept ns/us/µs/ms/s suffixes (default µs). Events are
// separated by ';'.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

// Kind enumerates the failure modes.
type Kind int

const (
	// Crash is a fail-stop node failure at Event.At.
	Crash Kind = iota
	// Partition delays traffic between Event.Node and Event.Peer
	// during [Event.At, Event.Until).
	Partition
	// Slow multiplies the wire time of traffic touching Event.Node by
	// Event.Factor during [Event.At, Event.Until).
	Slow
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Partition:
		return "partition"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// Event is one scheduled failure.
type Event struct {
	Kind Kind
	// Node is the failing node (crash, slow) or one endpoint of the
	// partition.
	Node int
	// Peer is the other endpoint of a partition.
	Peer int
	// At is when the failure begins.
	At simtime.Time
	// Until ends a partition or slow window (exclusive). Unused for
	// crashes — a crash is forever.
	Until simtime.Time
	// Factor is the slow-node wire-time multiplier (>= 1).
	Factor int
}

// String renders the event in the Parse syntax; Parse(ev.String())
// yields ev again.
func (ev Event) String() string {
	switch ev.Kind {
	case Crash:
		return fmt.Sprintf("crash:%d@%s", ev.Node, formatTime(ev.At))
	case Partition:
		return fmt.Sprintf("partition:%d-%d@%s..%s", ev.Node, ev.Peer, formatTime(ev.At), formatTime(ev.Until))
	default:
		return fmt.Sprintf("slow:%dx%d@%s..%s", ev.Node, ev.Factor, formatTime(ev.At), formatTime(ev.Until))
	}
}

// formatTime renders a time in whole µs, or in ns when it is not one.
func formatTime(t simtime.Time) string {
	if t%simtime.Microsecond != 0 {
		return fmt.Sprintf("%dns", int64(t))
	}
	return fmt.Sprintf("%dus", int64(t/simtime.Microsecond))
}

// Plan is a deterministic failure schedule, sorted by (At, spec order).
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// String renders the plan in the Parse syntax.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, ev := range p.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ";")
}

// Parse reads a plan spec: ';'-separated events in the syntax
// documented on the package. An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, ev)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}

func parseEvent(s string) (Event, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q wants kind:spec", s)
	}
	switch kind {
	case "crash":
		// crash:N@T
		nodeStr, atStr, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("fault: crash event %q wants crash:N@T", s)
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad node in %q: %w", s, err)
		}
		at, err := parseTime(atStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad time in %q: %w", s, err)
		}
		return Event{Kind: Crash, Node: node, At: at}, nil
	case "partition":
		// partition:A-B@T1..T2
		pair, window, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("fault: partition event %q wants partition:A-B@T1..T2", s)
		}
		aStr, bStr, ok := strings.Cut(pair, "-")
		if !ok {
			return Event{}, fmt.Errorf("fault: partition event %q wants two endpoints A-B", s)
		}
		a, err := strconv.Atoi(aStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad endpoint in %q: %w", s, err)
		}
		b, err := strconv.Atoi(bStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad endpoint in %q: %w", s, err)
		}
		at, until, err := parseWindow(window)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad window in %q: %w", s, err)
		}
		return Event{Kind: Partition, Node: a, Peer: b, At: at, Until: until}, nil
	case "slow":
		// slow:NxF@T1..T2
		pair, window, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, fmt.Errorf("fault: slow event %q wants slow:NxF@T1..T2", s)
		}
		nodeStr, facStr, ok := strings.Cut(pair, "x")
		if !ok {
			return Event{}, fmt.Errorf("fault: slow event %q wants a xF factor", s)
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad node in %q: %w", s, err)
		}
		factor, err := strconv.Atoi(facStr)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad factor in %q: %w", s, err)
		}
		at, until, err := parseWindow(window)
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad window in %q: %w", s, err)
		}
		return Event{Kind: Slow, Node: node, Factor: factor, At: at, Until: until}, nil
	}
	return Event{}, fmt.Errorf("fault: unknown event kind %q (want crash, partition or slow)", kind)
}

func parseWindow(s string) (from, until simtime.Time, err error) {
	fromStr, untilStr, ok := strings.Cut(s, "..")
	if !ok {
		return 0, 0, fmt.Errorf("window %q wants T1..T2", s)
	}
	if from, err = parseTime(fromStr); err != nil {
		return 0, 0, err
	}
	if until, err = parseTime(untilStr); err != nil {
		return 0, 0, err
	}
	if until <= from {
		return 0, 0, fmt.Errorf("window %q is empty", s)
	}
	return from, until, nil
}

func parseTime(s string) (simtime.Time, error) {
	s = strings.TrimSpace(s)
	unit := simtime.Microsecond
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, s = simtime.Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		s = strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "µs"):
		s = strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "ms"):
		unit, s = simtime.Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, s = simtime.Second, strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative time %q", s)
	}
	if v > math.MaxInt64/int64(unit) {
		return 0, fmt.Errorf("time %q overflows", s)
	}
	return simtime.Time(v) * unit, nil
}

// Validate checks the plan against a cluster size: every rank in
// range, rank 0 never crashes (it hosts the global negotiation lock
// and the defragmentation coordinator), factors sane, and at most one
// crash per node.
func (p *Plan) Validate(nodes int) error {
	if p.Empty() {
		return nil
	}
	crashed := map[int]bool{}
	for _, ev := range p.Events {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("fault: %s names node %d outside the %d-node cluster", ev, ev.Node, nodes)
		}
		switch ev.Kind {
		case Crash:
			if ev.Node == 0 {
				return fmt.Errorf("fault: %s — rank 0 hosts the global lock manager and cannot crash", ev)
			}
			if crashed[ev.Node] {
				return fmt.Errorf("fault: node %d crashes twice", ev.Node)
			}
			crashed[ev.Node] = true
		case Partition:
			if ev.Peer < 0 || ev.Peer >= nodes {
				return fmt.Errorf("fault: %s names node %d outside the %d-node cluster", ev, ev.Peer, nodes)
			}
			if ev.Peer == ev.Node {
				return fmt.Errorf("fault: %s partitions a node from itself", ev)
			}
		case Slow:
			if ev.Factor < 1 {
				return fmt.Errorf("fault: %s wants a factor >= 1", ev)
			}
		}
	}
	return nil
}

// Crashes returns the crash events of the plan in schedule order.
func (p *Plan) Crashes() []Event {
	if p.Empty() {
		return nil
	}
	var out []Event
	for _, ev := range p.Events {
		if ev.Kind == Crash {
			out = append(out, ev)
		}
	}
	return out
}

// State is the runtime fault view: it implements the network-layer
// adjustment hook (bip.Network.SetFaults takes exactly this Adjust
// signature) and answers liveness queries for the runtime. All methods
// are pure functions of the plan plus the query times, so every
// consultation is deterministic.
type State struct {
	plan    *Plan
	crashAt map[int]simtime.Time
}

// NewState builds the runtime view of a plan.
func NewState(p *Plan) *State {
	s := &State{plan: p, crashAt: map[int]simtime.Time{}}
	for _, ev := range p.Crashes() {
		s.crashAt[ev.Node] = ev.At
	}
	return s
}

// Plan returns the schedule the state was built from.
func (s *State) Plan() *Plan { return s.plan }

// CrashTime returns node n's crash time, if the plan crashes it.
func (s *State) CrashTime(n int) (simtime.Time, bool) {
	t, ok := s.crashAt[n]
	return t, ok
}

// Crashed reports whether node n is dead at time t.
func (s *State) Crashed(n int, t simtime.Time) bool {
	at, ok := s.crashAt[n]
	return ok && t >= at
}

// Partitioned reports whether a partition window separating nodes a
// and b is open at time t. Like every State query it is a pure
// function of the plan, so it may be consulted from any lane.
func (s *State) Partitioned(a, b int, t simtime.Time) bool {
	for _, ev := range s.plan.Events {
		if ev.Kind == Partition && t >= ev.At && t < ev.Until &&
			((ev.Node == a && ev.Peer == b) || (ev.Node == b && ev.Peer == a)) {
			return true
		}
	}
	return false
}

// Isolated reports whether node n has any open partition window at
// time t — the coarse "is this node cut off from someone" signal the
// failure detector uses to distinguish a live-but-unreachable node
// from a crashed one.
func (s *State) Isolated(n int, t simtime.Time) bool {
	for _, ev := range s.plan.Events {
		if ev.Kind == Partition && t >= ev.At && t < ev.Until &&
			(ev.Node == n || ev.Peer == n) {
			return true
		}
	}
	return false
}

// ActiveAt returns the partition and slow events whose windows are
// open at time t, in schedule order. Crashes are permanent and are
// answered by Crashed/CrashTime instead.
func (s *State) ActiveAt(t simtime.Time) []Event {
	var out []Event
	for _, ev := range s.plan.Events {
		if ev.Kind != Crash && t >= ev.At && t < ev.Until {
			out = append(out, ev)
		}
	}
	return out
}

// NextTransition returns the earliest event boundary (an At or an
// Until of any event) strictly after t, or 0, false when the plan has
// no further transitions — what a scheduler needs to re-examine the
// fault state exactly when it can change.
func (s *State) NextTransition(t simtime.Time) (simtime.Time, bool) {
	var next simtime.Time
	found := false
	consider := func(x simtime.Time) {
		if x > t && (!found || x < next) {
			next, found = x, true
		}
	}
	for _, ev := range s.plan.Events {
		consider(ev.At)
		if ev.Kind != Crash {
			consider(ev.Until)
		}
	}
	return next, found
}

// Adjust is the per-send hook: given a message from src to dst whose
// send starts at start and would be delivered at arrive, it returns
// the (possibly delayed) delivery time and whether the message is
// dropped instead. Partitions and slow windows apply to sends that
// start inside their window; a crash drops everything that would
// arrive at or after the crash instant.
func (s *State) Adjust(src, dst int, start, arrive simtime.Time) (simtime.Time, bool) {
	for _, ev := range s.plan.Events {
		switch ev.Kind {
		case Partition:
			if start >= ev.At && start < ev.Until &&
				((ev.Node == src && ev.Peer == dst) || (ev.Node == dst && ev.Peer == src)) {
				// Store-and-forward at heal time: the message is held at
				// the partition and delivered at the heal instant. Taking
				// max(arrive, Until) — rather than shifting every send by
				// its own remaining window — keeps the adjustment monotone
				// in the fault-free arrival time, so per-pair FIFO order
				// is preserved across the healing.
				if arrive < ev.Until {
					arrive = ev.Until
				}
			}
		case Slow:
			if start >= ev.At && start < ev.Until && (ev.Node == src || ev.Node == dst) {
				arrive = start + (arrive-start)*simtime.Time(ev.Factor)
			}
		}
	}
	if s.Crashed(dst, arrive) || s.Crashed(src, start) {
		return arrive, true
	}
	return arrive, false
}
