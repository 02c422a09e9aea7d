// Package loadbal implements the generic load-balancing module the paper
// motivates in §2: "a generic module implemented outside the running
// application could balance the load by migrating the application threads.
// The threads are unaware of their being migrated and keep on running
// irrespective of their location."
//
// The balancer runs as a periodic virtual-time activity: it samples each
// node's resident thread count into the cluster's policy engine
// (internal/policy) and executes whatever migrations the policy decides.
// With the default negotiation policy this is exactly the seed behavior —
// preemptively migrate from the most loaded node to the least loaded one
// past a threshold — but any policy (round-robin spread, work stealing)
// plugs in through Config.Policy or the cluster's own Config.Placement.
// It uses only the public migration mechanism — no cooperation from the
// threads.
package loadbal

import (
	"repro/internal/marcel"
	"repro/internal/pm2"
	"repro/internal/policy"
	"repro/internal/simtime"
)

// Config parameterizes a balancer.
type Config struct {
	// Period between balancing rounds (default 5 ms of virtual time).
	Period simtime.Time
	// Threshold is the minimum load imbalance (max - min resident
	// threads) that triggers a migration. Applied, only when set, to
	// the threshold/negotiation scheme (which defaults to 2 itself);
	// it is ignored when the deciding policy is anything else,
	// including a wrapped/decorated threshold policy.
	Threshold int
	// MaxMovesPerRound bounds migrations per round, with the same
	// set-only, negotiation-only semantics (the policy defaults to 1).
	MaxMovesPerRound int
	// Policy overrides the cluster's placement policy for balancing
	// decisions. Default nil: share the cluster's policy engine, so
	// spawn placement and balancing see the same state.
	Policy policy.Policy
	// StaleAfter, when set, marks load reports older than this as
	// stale, making their nodes ineligible as migration sources or
	// destinations (0 = leave the engine's current window unchanged).
	// The balancer refreshes every node each round, so this matters
	// for externally fed reports.
	StaleAfter simtime.Time
	// KeepAliveUntil keeps rounds scheduled through this virtual time
	// even when the cluster is momentarily idle, for workloads that
	// spawn in waves. Zero preserves the drain-on-idle behavior: the
	// first round that sees an empty cluster stops rescheduling.
	KeepAliveUntil simtime.Time
}

// Balancer periodically redistributes threads over a cluster.
type Balancer struct {
	c       *pm2.Cluster
	cfg     Config
	eng     *policy.Engine
	stopped bool
	paused  bool
	moves   int
	rounds  int
	// nextRoundAt is the absolute virtual time the next round is
	// scheduled for, zero when no round is pending (drained, stopped or
	// not yet scheduled) — what a checkpoint captures to restart the
	// cadence on the other side.
	nextRoundAt simtime.Time
}

// Attach starts a balancer on the cluster. It schedules itself on the
// discrete-event engine and keeps running until Stop (or until the engine
// drains with no further work).
func Attach(c *pm2.Cluster, cfg Config) *Balancer {
	b := attach(c, cfg)
	b.schedule()
	return b
}

// attach builds and registers a balancer without scheduling its first
// round — shared by Attach and AttachFromCheckpoint, which differ only
// in when (and whether) the cadence starts.
func attach(c *pm2.Cluster, cfg Config) *Balancer {
	if cfg.Period <= 0 {
		cfg.Period = 5 * simtime.Millisecond
	}
	b := &Balancer{c: c, cfg: cfg}
	if cfg.Policy != nil {
		b.eng = policy.NewEngine(cfg.Policy, c.Nodes())
	} else {
		b.eng = c.Placement()
	}
	// Apply only knobs the caller actually set: the engine may be the
	// cluster's shared one, whose existing tuning must survive Attach.
	if cfg.StaleAfter > 0 {
		b.eng.StaleAfter = cfg.StaleAfter
	}
	if neg, ok := b.eng.Policy().(*policy.Negotiation); ok {
		if cfg.Threshold > 0 {
			neg.Threshold = cfg.Threshold
		}
		if cfg.MaxMovesPerRound > 0 {
			neg.MaxMoves = cfg.MaxMovesPerRound
		}
	}
	c.SetBalancer(b)
	return b
}

// AttachFromCheckpoint reattaches a balancer on a restored cluster from
// the round state a pm2ckpt v2 image carries. Config fields left at
// their zero value are filled from the capture, so the common call is
// AttachFromCheckpoint(c, Config{}, *ck.Balancer); the skipped round
// the capture paused is rescheduled at max(NextRoundAt, now), exactly
// as Resume does on the original cluster — the two continuations stay
// byte-identical.
func AttachFromCheckpoint(c *pm2.Cluster, cfg Config, st pm2.BalancerCheckpoint) *Balancer {
	if cfg.Period <= 0 {
		cfg.Period = st.Period
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = st.Threshold
	}
	if cfg.MaxMovesPerRound == 0 {
		cfg.MaxMovesPerRound = st.MaxMoves
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = st.StaleAfter
	}
	if cfg.KeepAliveUntil == 0 {
		cfg.KeepAliveUntil = st.KeepAliveUntil
	}
	b := attach(c, cfg)
	b.CheckpointResume(st)
	return b
}

// CheckpointPause implements pm2.BalancerCheckpointer: stop scheduling
// (the already-pending round, if any, fires as a no-op during the
// checkpoint drain) and hand the round state to the capture.
func (b *Balancer) CheckpointPause() pm2.BalancerCheckpoint {
	b.paused = true
	return pm2.BalancerCheckpoint{
		Period:         b.cfg.Period,
		NextRoundAt:    b.nextRoundAt,
		StaleAfter:     b.cfg.StaleAfter,
		KeepAliveUntil: b.cfg.KeepAliveUntil,
		Threshold:      b.cfg.Threshold,
		MaxMoves:       b.cfg.MaxMovesPerRound,
		Rounds:         b.rounds,
		Moves:          b.moves,
	}
}

// CheckpointResume implements pm2.BalancerCheckpointer: undo the pause
// and re-run the round the drain skipped. The skipped round's slot
// (st.NextRoundAt) is never after the quiescent instant — the drain
// executed past it — so the round fires at the restored clock and the
// cadence continues at its original period from there.
func (b *Balancer) CheckpointResume(st pm2.BalancerCheckpoint) {
	b.paused = false
	b.rounds, b.moves = st.Rounds, st.Moves
	if st.NextRoundAt == 0 {
		return // the balancer had drained before the capture
	}
	at := st.NextRoundAt
	if now := b.c.Engine().Now(); at < now {
		at = now
	}
	b.nextRoundAt = at
	b.c.Engine().At(at, b.round)
}

// Engine returns the policy engine driving this balancer's decisions.
func (b *Balancer) Engine() *policy.Engine { return b.eng }

// Moves returns the number of migrations the balancer has requested.
func (b *Balancer) Moves() int { return b.moves }

// Rounds returns the number of balancing rounds executed.
func (b *Balancer) Rounds() int { return b.rounds }

// Stop disables further rounds.
func (b *Balancer) Stop() { b.stopped = true }

func (b *Balancer) schedule() {
	b.nextRoundAt = b.c.Engine().Now() + b.cfg.Period
	b.c.Engine().After(b.cfg.Period, b.round)
}

func (b *Balancer) round() {
	if b.stopped || b.paused {
		return
	}
	b.nextRoundAt = 0
	b.rounds++
	// The balancing round doubles as the failure detector's heartbeat:
	// each round first ages the leases of nodes that stopped answering
	// (no-op on a healthy cluster; see pm2's fault layer).
	b.c.HeartbeatTick()
	// Sample loads into the engine. Reading counts is a control-plane
	// observation; the migration requests go through the owning node's
	// actor.
	now := b.c.Engine().Now()
	totalThreads := 0
	for i := 0; i < b.c.Nodes(); i++ {
		sched := b.c.Node(i).Scheduler()
		resident := sched.Threads()
		// An unresponsive (crashed but not yet declared) node files no
		// report — its last sample ages into staleness, so the policy
		// stops routing threads at it during the detection window. Its
		// residents still count: the cluster is not drained while a dead
		// node holds threads awaiting evacuation.
		totalThreads += resident
		if !b.c.NodeResponsive(i) {
			continue
		}
		b.eng.Report(policy.LoadReport{
			Node:     i,
			Resident: resident,
			Runnable: sched.Runnable(),
			Time:     now,
		})
	}
	if totalThreads == 0 {
		// Nothing left to balance; stop rescheduling so the engine
		// can drain — unless a wave workload asked us to outlive the
		// lull.
		if now < b.cfg.KeepAliveUntil {
			b.schedule()
		}
		return
	}
	for _, mv := range b.eng.Decide(now) {
		b.execute(mv)
	}
	b.schedule()
}

// execute requests mv.Count preemptive migrations from mv.Src to mv.Dst,
// picking runnable threads in TID order. When the convoy pipeline is on
// and the move covers several threads, they are frozen together and
// shipped as one zero-copy convoy message; otherwise each thread is
// marked for migration at its next quantum boundary, exactly as before.
func (b *Balancer) execute(mv policy.Move) {
	convoy := b.c.ConvoyEnabled()
	b.c.At(mv.Src, func(n *pm2.Node) {
		batch := make([]uint32, 0, mv.Count)
		for _, t := range n.Scheduler().Snapshot() {
			if len(batch) == mv.Count {
				break
			}
			if b.migratable(t) {
				batch = append(batch, t.TID)
			}
		}
		// b.moves is balancer-shared state mutated from a node handler:
		// count locally, commit in merge order.
		if convoy && len(batch) > 1 {
			moved := n.MigrateBatch(batch, mv.Dst)
			n.Actor().Commit(func() { b.moves += moved })
			return
		}
		moved := 0
		for _, tid := range batch {
			if n.Scheduler().RequestMigration(tid, mv.Dst) {
				moved++
			}
		}
		if moved > 0 {
			n.Actor().Commit(func() { b.moves += moved })
		}
	})
}

// migratable filters out threads that should not move: blocked threads
// would only migrate on wake-up, so prefer runnable ones.
func (b *Balancer) migratable(t *marcel.Thread) bool {
	return !t.Blocked() && t.MigrateTo < 0
}
