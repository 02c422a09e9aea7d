// Package policy is the migration-policy engine: it decides *when* and
// *where* threads move, separated from the mechanism that moves them
// (internal/pm2's iso-address or relocation migration).
//
// The paper's evaluation (Figures 6–9) shows that placement decisions
// dominate end-to-end cost, yet the original PM2 hard-wires a single
// negotiation-driven path. Here every decision point — spawn placement,
// balancing rounds, migration target selection — goes through a Policy,
// so alternatives (round-robin spread, work stealing, future schemes) are
// swappable and testable against the same deterministic workloads
// (internal/scenario).
//
// A Policy is consulted through an Engine, which owns the load-report
// store, computes report staleness, and sanitizes the policy's output so
// a buggy policy cannot produce invalid migrations. Policies are
// single-goroutine objects living inside the cluster's virtual-time
// world; they must be deterministic (no maps iterated, no real time, no
// randomness) or golden-trace tests will catch them.
//
// To add a policy: implement Policy, keep every method deterministic,
// register a name in Parse, and add the name to Names. The scenario
// harness and its golden/property tests pick it up from there.
package policy

import (
	"fmt"

	"repro/internal/simtime"
)

// LoadReport is one node's load sample, as fed to OnLoadReport and as
// seen (with Stale computed) in a View.
type LoadReport struct {
	// Node is the reporting node's rank.
	Node int
	// Resident is the number of threads hosted by the node, including
	// blocked ones (what the paper's balancer counts).
	Resident int
	// Runnable is the number of resident threads that are not blocked.
	Runnable int
	// Time is the virtual time the sample was taken.
	Time simtime.Time
	// Stale marks a report older than the engine's StaleAfter window.
	// Policies must not move threads to or from a stale node: its true
	// load is unknown.
	Stale bool
}

// View is the cluster state a policy sees at decision time: one report
// per node (Reports[i].Node == i) plus the current virtual time.
type View struct {
	Now     simtime.Time
	Reports []LoadReport
}

// Move is one requested migration batch: Count threads from node Src to
// node Dst.
type Move struct {
	Src, Dst, Count int
}

func (m Move) String() string { return fmt.Sprintf("%d->%dx%d", m.Src, m.Dst, m.Count) }

// Policy decides thread placement and migration. Implementations must be
// deterministic; they may keep state across calls (the Engine never
// copies a Policy).
type Policy interface {
	// Name returns the canonical policy name (as accepted by Parse).
	Name() string
	// OnLoadReport ingests one node's fresh load sample. Called for
	// every sample the engine stores, before any decision that sample
	// participates in.
	OnLoadReport(r LoadReport)
	// ShouldMigrate reports whether the policy wants to move anything
	// under the given view. PickTarget is only consulted when true.
	ShouldMigrate(v View) bool
	// PickTarget selects this round's migrations.
	PickTarget(v View) []Move
	// PickSpawn chooses the node for a new thread whose creator asked
	// for node pref. Behavior-preserving policies return pref.
	PickSpawn(pref int, v View) int
}

// SpawnRerouter is the optional capability of policies whose PickSpawn
// may return something other than the caller's preference. The runtime
// only samples cluster loads and consults PickSpawn on the spawn path
// for policies that implement it and return true — for everything else
// (the default negotiation scheme, work stealing) spawn placement is a
// no-op and stays off the hot path.
type SpawnRerouter interface {
	ReroutesSpawns() bool
}

// Reroutes reports whether p may reroute spawns.
func Reroutes(p Policy) bool {
	r, ok := p.(SpawnRerouter)
	return ok && r.ReroutesSpawns()
}

// Parse resolves a policy name to a fresh Policy instance. The empty
// string selects the default (the paper's threshold/negotiation scheme).
func Parse(name string) (Policy, error) {
	switch name {
	case "", "negotiation", "threshold":
		return NewNegotiation(), nil
	case "round-robin", "rr", "spread":
		return NewRoundRobinSpread(), nil
	case "work-stealing", "steal", "ws":
		return NewWorkStealing(), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
}

// Names lists the canonical policy names.
func Names() []string { return []string{"negotiation", "round-robin", "work-stealing"} }

// Engine drives a Policy: it stores the latest load report per node,
// stamps staleness, and validates every decision before the runtime acts
// on it.
type Engine struct {
	// StaleAfter marks reports older than this as stale when building a
	// view (0 = reports never go stale).
	StaleAfter simtime.Time

	pol     Policy
	reports []LoadReport
	down    []bool
	suspect []bool
}

// NewEngine builds an engine over pol for a cluster of nodes ranks.
func NewEngine(pol Policy, nodes int) *Engine {
	e := &Engine{
		pol:     pol,
		reports: make([]LoadReport, nodes),
		down:    make([]bool, nodes),
		suspect: make([]bool, nodes),
	}
	for i := range e.reports {
		e.reports[i] = LoadReport{Node: i, Time: -1} // never reported
	}
	return e
}

// Policy returns the wrapped policy.
func (e *Engine) Policy() Policy { return e.pol }

// SetDown marks a node as permanently dead: its reports are dropped,
// every view shows it stale (so Decide never moves threads to or from
// it), and PlaceSpawn reroutes around it.
func (e *Engine) SetDown(node int) {
	if node >= 0 && node < len(e.down) {
		e.down[node] = true
	}
}

// SetSuspect marks node as suspected (true) or clears the suspicion
// (false). A suspected node behaves like a dead one for every decision —
// reports dropped, views stale, spawns rerouted — but reversibly: the
// failure detector clears the flag when a partitioned node rejoins.
func (e *Engine) SetSuspect(node int, suspected bool) {
	if node >= 0 && node < len(e.suspect) {
		e.suspect[node] = suspected
	}
}

// Report stores one node's sample and forwards it to the policy.
func (e *Engine) Report(r LoadReport) {
	if r.Node < 0 || r.Node >= len(e.reports) || e.down[r.Node] || e.suspect[r.Node] {
		return
	}
	r.Stale = false
	e.reports[r.Node] = r
	e.pol.OnLoadReport(r)
}

// View assembles the policy's view at virtual time now, computing
// staleness from StaleAfter. Nodes that never reported are stale.
func (e *Engine) View(now simtime.Time) View {
	v := View{Now: now, Reports: make([]LoadReport, len(e.reports))}
	copy(v.Reports, e.reports)
	for i := range v.Reports {
		r := &v.Reports[i]
		if r.Time < 0 || e.down[i] || e.suspect[i] {
			r.Stale = true
			continue
		}
		if e.StaleAfter > 0 && now-r.Time > e.StaleAfter {
			r.Stale = true
		}
	}
	return v
}

// Decide runs one balancing decision: gate on ShouldMigrate, then return
// PickTarget's moves with invalid entries (bad ranks, self-moves,
// non-positive counts, stale endpoints) dropped and over-asking counts
// clamped to the source's fresh resident population — a buggy policy
// must not request more threads than exist, or the balancer's Moves()
// accounting would misstate what was actually possible.
func (e *Engine) Decide(now simtime.Time) []Move {
	v := e.View(now)
	if !e.pol.ShouldMigrate(v) {
		return nil
	}
	var out []Move
	for _, m := range e.pol.PickTarget(v) {
		if m.Src < 0 || m.Src >= len(v.Reports) || m.Dst < 0 || m.Dst >= len(v.Reports) {
			continue
		}
		if m.Src == m.Dst || m.Count <= 0 {
			continue
		}
		if v.Reports[m.Src].Stale || v.Reports[m.Dst].Stale {
			continue
		}
		if r := v.Reports[m.Src].Resident; m.Count > r {
			m.Count = r
		}
		if m.Count <= 0 {
			continue
		}
		out = append(out, m)
	}
	return out
}

// PlaceSpawn asks the policy where to create a thread whose creator
// asked for node pref, falling back to pref on an invalid answer.
// Dead nodes are never returned: both the preference and the policy's
// answer are rerouted to the next live rank.
func (e *Engine) PlaceSpawn(pref int, now simtime.Time) int {
	pref = e.NextLive(pref)
	n := e.pol.PickSpawn(pref, e.View(now))
	if n < 0 || n >= len(e.reports) {
		return pref
	}
	return e.NextLive(n)
}

// NextLive returns node if it is alive and unsuspected, otherwise the
// next such rank scanning upward with wraparound (node itself if none
// qualifies).
func (e *Engine) NextLive(node int) int {
	if node < 0 || node >= len(e.down) {
		return node
	}
	for i := 0; i < len(e.down); i++ {
		cand := (node + i) % len(e.down)
		if !e.down[cand] && !e.suspect[cand] {
			return cand
		}
	}
	return node
}
