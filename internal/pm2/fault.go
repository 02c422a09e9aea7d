package pm2

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/fault"
	"repro/internal/layout"
	"repro/internal/marcel"
	"repro/internal/simtime"
)

// Fault tolerance: node death, thread evacuation, slot reclaim.
//
// The paper's cluster is failure-free; this file adds the fail-stop model
// operators actually run under. A fault plan (internal/fault) schedules
// crash, partition and slow-node events in virtual time:
//
//   - a crash is fail-stop with a recoverable image: at the crash instant
//     the node's scheduler pump is gated off (its queued events drain
//     to a tombstone — they still fire but dispatch no further work), and every message whose delivery would land on the
//     dead node is dropped at the wire (bip.FaultPolicy). The node's
//     simulated memory stays readable, which is what makes evacuation
//     possible: the survivors recover the resident thread images over
//     the interconnect, as a checkpoint-on-peer scheme would.
//   - detection is a lease piggybacked on the load-report heartbeat: the
//     balancer's periodic round calls Cluster.HeartbeatTick, a crashed
//     node misses its report, and Config.HeartbeatMisses consecutive
//     misses expire the lease — the node is declared dead.
//   - declaration triggers evacuation and reclaim (declareDead below):
//     the dead node's resident threads are frozen in place, convoyed to
//     the survivors round-robin, and thawed there; the dead rank's
//     owned-free slots are surrendered and re-dealt to the survivors.
//     Every reclaimed run lands through NodeSlots.BuyRun on its new
//     owner. Reclaim needs no lock to be safe: a seller validates every
//     purchase against its own bitmap (TestRun) when serving it, so a
//     plan made on a pre-reclaim view is declined, never double-sold.
//
// With Config.RPCTimeout set, detection additionally distinguishes
// *suspected* from *declared dead* (the partial-failure model):
//
//   - a node that misses HeartbeatMisses consecutive heartbeats — because
//     it crashed, or because a live partition cut it off from rank 0's
//     vantage — is suspected: the placement engine and the gather,
//     purchase and defrag loops route around it (the widened nodeAlive
//     predicate below), but nothing is evacuated or reclaimed, because
//     it may still be alive and owning its threads and slots.
//   - a suspected node that answers again (the partition healed) rejoins:
//     suspicion is cleared and every cached cross-node belief about it —
//     delta views and gathered versions, in both directions — is
//     dropped, so the next negotiation resyncs from ground truth via
//     the existing full-map first-contact fallback.
//   - only a suspected node that stays silent through a second full
//     confirmation window *and* has actually crashed is declared dead
//     and evacuated. A partitioned-but-alive node is never evacuated:
//     fail-stop recovery of a node that still runs would double-own its
//     threads and slots the moment the partition healed.
//
// Residual hazard, by design out of scope (documented in DESIGN.md): a
// thread migrated *to* a crashed node between crash and declaration is
// lost with it. With RPCTimeout unset the seed's behavior — in-flight
// protocol exchanges against a failing node hang their initiator — is
// preserved exactly, goldens included.

// InstallFaults installs a failure plan on a cluster that has not run
// yet: the wire-level fault policy is attached and one engine event is
// scheduled per crash. Clusters built with Config.Faults
// get this implicitly; it is exported for drivers that build the cluster
// first and decide the plan afterwards (the scenario harness).
func (c *Cluster) InstallFaults(plan *fault.Plan) error {
	if plan == nil || plan.Empty() {
		return nil
	}
	if c.faults != nil {
		return fmt.Errorf("pm2: a fault plan is already installed")
	}
	if err := validateFaultPlan(plan, c.cfg); err != nil {
		return err
	}
	c.faults = fault.NewState(plan)
	c.down = make([]bool, c.Nodes())
	c.suspected = make([]bool, c.Nodes())
	c.suspectedAt = make([]simtime.Time, c.Nodes())
	c.missedBeats = make([]int, c.Nodes())
	c.nw.SetFaults(c.faults)
	for _, ev := range plan.Crashes() {
		node := ev.Node
		// The crash event was scheduled before any workload event at
		// the same instant, so it runs first: nothing dispatched at the
		// crash time starts on the dead node.
		c.eng.At(ev.At, func() { c.nodes[node].dead = true })
	}
	return nil
}

// validateFaultPlan checks a plan against the cluster shape: fail-stop
// recovery needs survivors to evacuate to, and the relocation baseline
// has no iso-address images to recover.
func validateFaultPlan(plan *fault.Plan, cfg Config) error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("pm2: a fault plan needs at least two nodes (Nodes = %d)", cfg.Nodes)
	}
	if cfg.Policy != PolicyIso {
		return fmt.Errorf("pm2: fault tolerance requires the iso-address migration policy")
	}
	return plan.Validate(cfg.Nodes)
}

// FaultState returns the installed fault state (nil on a healthy cluster).
func (c *Cluster) FaultState() *fault.State { return c.faults }

// NodeResponsive reports whether node i would answer a heartbeat right
// now: false once the node has crashed — whether or not the failure has
// been declared yet — or while a live partition cuts it off from rank 0,
// where the balancer (and its heartbeat vantage) lives. Balancers use it
// to skip sampling unreachable nodes.
func (c *Cluster) NodeResponsive(i int) bool {
	if c.faults == nil {
		return true
	}
	now := c.eng.Now()
	return !c.faults.Crashed(i, now) && !c.faults.Partitioned(0, i, now)
}

// NodeSuspected reports whether node i is currently suspected: routed
// around but not evacuated, pending confirmation or rejoin.
func (c *Cluster) NodeSuspected(i int) bool {
	return c.suspected != nil && i >= 0 && i < len(c.suspected) && c.suspected[i]
}

// NodeDown reports whether node i has been declared dead (lease expired,
// threads evacuated, slots reclaimed).
func (c *Cluster) NodeDown(i int) bool {
	return c.down != nil && i >= 0 && i < len(c.down) && c.down[i]
}

// nodeAlive is the down-skip predicate the gather, purchase and defrag
// loops consult: true for every rank on a healthy cluster, false for
// declared-dead ranks and — under suspicion mode — for suspected ones,
// which are routed around but keep everything they own.
func (c *Cluster) nodeAlive(i int) bool {
	return (c.down == nil || !c.down[i]) && (c.suspected == nil || !c.suspected[i])
}

// anyDown reports whether any rank is declared dead or suspected. The
// tree gather falls back to the flat delta round then — a combining tree
// through an unreachable interior node would stall (or time out) its
// whole subtree.
func (c *Cluster) anyDown() bool { return c.nDown > 0 || c.nSuspected > 0 }

// HeartbeatTick runs one failure-detection round, from an engine event
// outside any node's handler (the balancer round, a test driver):
// suspicion, rejoin and declaration touch every node's state. No-op on
// a healthy cluster.
//
// With RPCTimeout unset the seed's one-stage detection runs verbatim:
// every undeclared crashed node accrues a missed heartbeat, and
// HeartbeatMisses consecutive misses expire its lease. With it set,
// detection is two-stage: HeartbeatMisses misses *suspect* the node
// (reversible — a healed partition rejoins it), and only a suspected
// node that stays unresponsive through a second full window and has
// actually crashed is declared dead. A partitioned-but-alive node is
// never evacuated.
func (c *Cluster) HeartbeatTick() {
	if c.faults == nil {
		return
	}
	now := c.eng.Now()
	if c.cfg.RPCTimeout == 0 {
		for i := range c.nodes {
			if c.down[i] {
				continue
			}
			if !c.faults.Crashed(i, now) {
				c.missedBeats[i] = 0
				continue
			}
			c.missedBeats[i]++
			if c.missedBeats[i] >= c.cfg.HeartbeatMisses {
				c.declareDead(i, now)
			}
		}
		return
	}
	for i := range c.nodes {
		if c.down[i] {
			continue
		}
		// The heartbeat rides the load-report round, which rank 0's
		// balancer drives: a node is responsive when it is neither
		// crashed nor partitioned away from rank 0.
		responsive := !c.faults.Crashed(i, now) && !c.faults.Partitioned(0, i, now)
		if responsive {
			if c.suspected[i] {
				c.rejoin(i, now)
			} else {
				c.missedBeats[i] = 0
			}
			continue
		}
		c.missedBeats[i]++
		if !c.suspected[i] {
			if c.missedBeats[i] >= c.cfg.HeartbeatMisses {
				c.suspect(i, now)
			}
			continue
		}
		// Confirmation window: a second full lease of silence, and only
		// an actual crash graduates to declared dead — suspicion caused
		// by a live partition stays suspicion until the heal rejoins it.
		if c.missedBeats[i] >= 2*c.cfg.HeartbeatMisses && c.faults.Crashed(i, now) {
			c.declareDead(i, now)
		}
	}
}

// suspect marks node i suspected: placement and the protocol loops stop
// routing to it, and every survivor's cached delta view of it is dropped
// so no purchase is planned on slots only an unreachable peer could
// sell. Nothing is evacuated or reclaimed — the node may be alive behind
// a partition, still running its threads. Runs outside any node's handler.
func (c *Cluster) suspect(i int, now simtime.Time) {
	c.suspected[i] = true
	c.suspectedAt[i] = now
	c.nSuspected++
	c.stats.Suspicions++
	c.pol.SetSuspect(i, true)
	for j, n := range c.nodes {
		if j == i || c.down[j] {
			continue
		}
		n.forgetDeltaPeer(i)
	}
	c.log.Raw(fmt.Sprintf("[suspect] node %d suspected at t=%dus (%d heartbeats missed)",
		i, now/simtime.Microsecond, c.missedBeats[i]))
}

// rejoin clears node i's suspicion after it answered a heartbeat again
// (the partition healed). Every cached cross-node belief involving it is
// dropped, in both directions: the survivors' delta views of i went
// stale while it was unreachable, and i's own view of the whole cluster
// went stale behind the partition. The next gather
// resyncs from ground truth — the delta gather through its full-map
// first-contact fallback. Runs outside any node's handler.
func (c *Cluster) rejoin(i int, now simtime.Time) {
	c.suspected[i] = false
	c.nSuspected--
	c.missedBeats[i] = 0
	c.stats.Rejoins++
	c.stats.RejoinLatencies = append(c.stats.RejoinLatencies, now-c.suspectedAt[i])
	c.pol.SetSuspect(i, false)
	r := c.nodes[i]
	for j, n := range c.nodes {
		if j == i || c.down[j] {
			continue
		}
		n.forgetDeltaPeer(i)
	}
	r.dropViews()
	c.log.Raw(fmt.Sprintf("[rejoin] node %d rejoined at t=%dus (suspicion cleared)",
		i, now/simtime.Microsecond))
}

// declareDead expires node i's lease: the placement engine stops routing
// to it, the keys it managed move to their new managers, its resident
// threads are evacuated to the survivors as convoys, and its owned-free
// slots are reclaimed. Runs outside any node's handler.
func (c *Cluster) declareDead(i int, now simtime.Time) {
	if c.suspected != nil && c.suspected[i] {
		// Graduating from suspected to declared dead: the permanent
		// down state supersedes the reversible suspicion bookkeeping.
		c.suspected[i] = false
		c.nSuspected--
		c.pol.SetSuspect(i, false)
	}
	c.down[i] = true
	c.nDown++
	c.pol.SetDown(i)
	d := c.nodes[i]

	if at, ok := c.faults.CrashTime(i); ok {
		c.stats.DetectionLatencies = append(c.stats.DetectionLatencies, now-at)
	}

	live := make([]int, 0, c.Nodes()-1)
	for j := range c.nodes {
		if !c.down[j] {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		panic("pm2: every node declared dead") // rank 0 cannot crash
	}

	c.rerouteLocks(d)
	evacuated := c.evacuate(d, live, now)
	reclaimed := c.reclaim(d, live)

	c.stats.Evacuations++
	c.stats.EvacuatedThreads += evacuated
	c.stats.ReclaimedSlots += reclaimed
	c.log.Raw(fmt.Sprintf("[failover] node %d declared dead at t=%dus (%d heartbeats missed)",
		i, now/simtime.Microsecond, c.missedBeats[i]))
	c.log.Raw(fmt.Sprintf("[failover] node %d: evacuating %d threads to %d survivors, reclaiming %d slots",
		i, evacuated, len(live), reclaimed))
}

// evacuate freezes every thread resident on the dead node (in TID order),
// packs their slot images, and ships one convoy per destination. All of
// the dead node's work runs muted — its CPU charges nothing; the
// survivors pay the receive and install, exactly like a convoy arrival.
// Destinations rotate round-robin over the live ranks so the orphaned
// load spreads. Returns the number of threads evacuated.
func (c *Cluster) evacuate(d *Node, live []int, declared simtime.Time) int {
	residents := d.sched.Snapshot()
	if len(residents) == 0 {
		return 0
	}
	// Zero-copy record layout when the convoy pipeline is on, the
	// paper-faithful copying charges otherwise. Either way the body is
	// packConvoy's, installed by installConvoy like a convoy arrival.
	zeroCopy := c.cfg.Convoy
	batches := make([][]*marcel.Thread, len(live))
	for k, t := range residents {
		batches[k%len(live)] = append(batches[k%len(live)], t)
	}

	at := c.eng.Now() + simtime.Time(c.cfg.Model.WireLatencyNs)*simtime.Nanosecond
	for j, ts := range batches {
		if len(ts) == 0 {
			break // fewer residents than survivors
		}
		var body []byte
		d.actor.Mute(func() {
			d.freezeDetach(ts, "evacuation")
			buf := c.bufPool.Get()
			groups := d.packConvoy(buf, ts, declared, zeroCopy)
			// Gather the inline stream and the borrowed page aliases
			// into a body of our own before the buffer returns to the
			// pool (the pool reuses the backing array) and the pages
			// are evicted.
			body = buf.CopyBytes()
			c.bufPool.Put(buf)
			d.evictGroups(groups)
		})
		node := c.nodes[live[j]]
		node.actor.Post(at, func() {
			node.recoverConvoy(body, zeroCopy)
		})
	}
	return len(residents)
}

// recoverConvoy installs an evacuation convoy on a survivor: every
// thread's slot groups are mapped and filled at their iso-addresses,
// then the threads thaw in freeze order and the scheduler is kicked
// once. A thread that was blocked on the dead node thaws runnable:
// whatever it was waiting for lived on a node that no longer exists, so
// it resumes with whatever result its waker had not yet delivered. The
// records carry the declaration instant as their start stamp, so the
// latencies are measured from there.
func (n *Node) recoverConvoy(body []byte, zeroCopy bool) {
	n.actor.Charge(n.c.cfg.Model.Recv(len(body)))
	lats, _ := n.installConvoy(body, zeroCopy)
	n.c.stats.EvacuationLatencies = append(n.c.stats.EvacuationLatencies, lats...)
}

// reclaim surrenders the dead rank's owned-free slots and deals the
// maximal free runs round-robin to the survivors. Each share lands
// through a posted, charged BuyRun on its new owner, so the on-change
// hook fires and every cached remote view of the reclaimed words goes
// stale. The survivors' cached delta views of the dead rank are dropped
// here too: it will never answer a delta request again, and its
// surrendered bits must not linger in any cached global OR. Returns the
// slots reclaimed.
func (c *Cluster) reclaim(d *Node, live []int) int {
	var given *bitmap.Bitmap
	d.actor.Mute(func() { given = d.slots.SurrenderAll() })

	for _, j := range live {
		n := c.nodes[j]
		n.forgetDeltaPeer(d.id)
	}

	total := given.Count()
	if total == 0 {
		return 0
	}
	// Carve the surrendered map into maximal set runs, dealt round-robin.
	shares := make(map[int][][2]int, len(live))
	run := 0
	for s := given.FirstSet(0); s >= 0 && s < given.Len(); {
		e := s
		for e < given.Len() && given.Test(e) {
			e++
		}
		dest := live[run%len(live)]
		shares[dest] = append(shares[dest], [2]int{s, e - s})
		run++
		if e >= given.Len() {
			break
		}
		s = given.FirstSet(e)
	}
	at := c.eng.Now() + simtime.Time(c.cfg.Model.WireLatencyNs)*simtime.Nanosecond
	for _, dest := range live {
		runs := shares[dest]
		if len(runs) == 0 {
			continue
		}
		node := c.nodes[dest]
		node.actor.Post(at, func() {
			node.actor.Charge(node.c.cfg.Model.BitmapScan(layout.BitmapBytes))
			for _, r := range runs {
				if err := node.slots.BuyRun(r[0], r[1]); err != nil {
					panic(fmt.Sprintf("pm2: reclaiming [%d,+%d) on node %d: %v", r[0], r[1], node.id, err))
				}
			}
		})
	}
	return total
}
