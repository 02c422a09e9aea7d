package policy

import (
	"reflect"
	"testing"

	"repro/internal/simtime"
)

func view(now simtime.Time, resident ...int) View {
	v := View{Now: now, Reports: make([]LoadReport, len(resident))}
	for i, r := range resident {
		v.Reports[i] = LoadReport{Node: i, Resident: r, Runnable: r, Time: now}
	}
	return v
}

func TestParse(t *testing.T) {
	for name, want := range map[string]string{
		"":              "negotiation",
		"negotiation":   "negotiation",
		"threshold":     "negotiation",
		"round-robin":   "round-robin",
		"rr":            "round-robin",
		"work-stealing": "work-stealing",
		"steal":         "work-stealing",
	} {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Fatal("Parse accepted an unknown policy")
	}
	if len(Names()) != 3 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestNegotiationMatchesSeedBalancer(t *testing.T) {
	p := NewNegotiation()
	// Balanced: below threshold.
	if p.ShouldMigrate(view(0, 3, 2, 3)) {
		t.Fatal("moved across a balanced cluster")
	}
	// Imbalanced: one busiest->idlest move, halving the gap but capped
	// at MaxMoves (1).
	v := view(0, 6, 0, 3)
	if !p.ShouldMigrate(v) {
		t.Fatal("did not react to imbalance")
	}
	if got := p.PickTarget(v); !reflect.DeepEqual(got, []Move{{Src: 0, Dst: 1, Count: 1}}) {
		t.Fatalf("PickTarget = %v", got)
	}
	// MaxMoves raises the cap; (max-min)/2 still binds.
	p.MaxMoves = 5
	if got := p.PickTarget(v); !reflect.DeepEqual(got, []Move{{Src: 0, Dst: 1, Count: 3}}) {
		t.Fatalf("PickTarget = %v", got)
	}
	// Ties break toward the lowest rank, as in the seed balancer.
	if got := p.PickTarget(view(0, 4, 4, 0, 0)); !reflect.DeepEqual(got, []Move{{Src: 0, Dst: 2, Count: 2}}) {
		t.Fatalf("PickTarget = %v", got)
	}
	// Spawns are never rerouted.
	if got := p.PickSpawn(2, v); got != 2 {
		t.Fatalf("PickSpawn = %d", got)
	}
}

func TestRoundRobinSpread(t *testing.T) {
	p := NewRoundRobinSpread()
	// Spawn placement rotates regardless of preference.
	v := view(0, 0, 0, 0, 0)
	got := []int{p.PickSpawn(0, v), p.PickSpawn(0, v), p.PickSpawn(0, v), p.PickSpawn(0, v)}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("spawn rotation = %v", got)
	}
	// Over-ceiling nodes shed toward under-ceiling ones.
	v = view(0, 6, 0, 0)
	if !p.ShouldMigrate(v) {
		t.Fatal("did not react to imbalance")
	}
	moves := p.PickTarget(v)
	if len(moves) == 0 {
		t.Fatal("no moves")
	}
	total := 0
	for _, m := range moves {
		if m.Src != 0 || m.Dst == 0 || m.Count <= 0 {
			t.Fatalf("bad move %v", m)
		}
		total += m.Count
	}
	if total > p.MaxMoves {
		t.Fatalf("moved %d > MaxMoves %d", total, p.MaxMoves)
	}
	// A one-thread gap is left alone (anti-ping-pong).
	if p.ShouldMigrate(view(0, 2, 1, 2)) {
		t.Fatal("reacted to a one-thread gap")
	}
}

func TestWorkStealing(t *testing.T) {
	p := NewWorkStealing()
	// No starving node: nothing moves even under imbalance.
	if p.ShouldMigrate(view(0, 6, 1, 1)) {
		t.Fatal("stole with no starving node")
	}
	// Starving nodes rob the richest; one round's thieves see each
	// other's takings.
	v := view(0, 8, 0, 0)
	if !p.ShouldMigrate(v) {
		t.Fatal("starving nodes did not steal")
	}
	moves := p.PickTarget(v)
	if len(moves) != 2 {
		t.Fatalf("moves = %v", moves)
	}
	for _, m := range moves {
		if m.Src != 0 || m.Count < 1 || m.Count > p.MaxSteal {
			t.Fatalf("bad steal %v", m)
		}
	}
	// A lone thread is never stolen.
	if p.ShouldMigrate(view(0, 1, 0)) {
		t.Fatal("stole a node's last thread")
	}
	if got := p.PickSpawn(1, v); got != 1 {
		t.Fatalf("PickSpawn = %d", got)
	}
}

func TestEngineSanitizesMoves(t *testing.T) {
	bad := &scriptedPolicy{moves: []Move{
		{Src: 0, Dst: 0, Count: 1},  // self-move
		{Src: -1, Dst: 1, Count: 1}, // bad rank
		{Src: 0, Dst: 9, Count: 1},  // bad rank
		{Src: 0, Dst: 1, Count: 0},  // empty batch
		{Src: 0, Dst: 1, Count: 2},  // the one valid move
	}}
	e := NewEngine(bad, 2)
	e.Report(LoadReport{Node: 0, Resident: 4, Time: 0})
	e.Report(LoadReport{Node: 1, Resident: 0, Time: 0})
	got := e.Decide(0)
	if !reflect.DeepEqual(got, []Move{{Src: 0, Dst: 1, Count: 2}}) {
		t.Fatalf("Decide = %v", got)
	}
}

func TestEngineClampsOverAskingCounts(t *testing.T) {
	over := &scriptedPolicy{moves: []Move{
		{Src: 0, Dst: 1, Count: 99}, // more threads than node 0 hosts
		{Src: 1, Dst: 0, Count: 5},  // source hosts nothing at all
	}}
	e := NewEngine(over, 2)
	e.Report(LoadReport{Node: 0, Resident: 3, Time: 0})
	e.Report(LoadReport{Node: 1, Resident: 0, Time: 0})
	got := e.Decide(0)
	if !reflect.DeepEqual(got, []Move{{Src: 0, Dst: 1, Count: 3}}) {
		t.Fatalf("Decide = %v, want count clamped to resident 3 and the empty-source move dropped", got)
	}
}

func TestEngineStaleness(t *testing.T) {
	pol := NewNegotiation()
	e := NewEngine(pol, 3)
	e.StaleAfter = 10 * simtime.Millisecond
	e.Report(LoadReport{Node: 0, Resident: 6, Time: 0})
	e.Report(LoadReport{Node: 1, Resident: 0, Time: 0})
	e.Report(LoadReport{Node: 2, Resident: 0, Time: 0})
	// Fresh: the imbalance is visible.
	if got := e.Decide(1 * simtime.Millisecond); len(got) != 1 {
		t.Fatalf("fresh Decide = %v", got)
	}
	// Node 1's report goes stale; node 2 stays fresh and becomes the
	// destination.
	e.Report(LoadReport{Node: 0, Resident: 6, Time: 20 * simtime.Millisecond})
	e.Report(LoadReport{Node: 2, Resident: 0, Time: 20 * simtime.Millisecond})
	got := e.Decide(20 * simtime.Millisecond)
	if !reflect.DeepEqual(got, []Move{{Src: 0, Dst: 2, Count: 1}}) {
		t.Fatalf("stale Decide = %v", got)
	}
	// All peers stale: nothing is eligible, nothing moves.
	got = e.Decide(60 * simtime.Millisecond)
	if len(got) != 0 {
		t.Fatalf("Decide with all-stale reports = %v", got)
	}
}

func TestEngineNeverReportedIsStale(t *testing.T) {
	e := NewEngine(NewNegotiation(), 2)
	v := e.View(0)
	if !v.Reports[0].Stale || !v.Reports[1].Stale {
		t.Fatalf("unreported nodes not stale: %+v", v.Reports)
	}
	if got := e.Decide(0); len(got) != 0 {
		t.Fatalf("Decide on unreported cluster = %v", got)
	}
}

func TestEnginePlaceSpawnFallback(t *testing.T) {
	e := NewEngine(&scriptedPolicy{spawn: 99}, 2)
	if got := e.PlaceSpawn(1, 0); got != 1 {
		t.Fatalf("PlaceSpawn with out-of-range answer = %d, want pref", got)
	}
}

// scriptedPolicy returns canned decisions, for engine-sanitization tests.
type scriptedPolicy struct {
	moves []Move
	spawn int
}

func (s *scriptedPolicy) Name() string                   { return "scripted" }
func (s *scriptedPolicy) OnLoadReport(LoadReport)        {}
func (s *scriptedPolicy) ShouldMigrate(View) bool        { return true }
func (s *scriptedPolicy) PickTarget(View) []Move         { return s.moves }
func (s *scriptedPolicy) PickSpawn(pref int, _ View) int { return s.spawn }
