package pm2

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/marcel"
	"repro/internal/simtime"
)

// Cluster checkpoint/restore.
//
// A checkpoint is the cluster's complete virtual-time state at a
// quiescent instant, serialized to the digest-sealed "pm2ckpt v1" text
// format: the engine clock, every node's busy horizon, slot bitmap,
// scheduler counters and NIC tallies, every resident thread's slot
// image (the same wire encoding migration uses — iso-addressing makes
// the bytes valid on any node, including a future one), the cluster
// stats and the trace so far. Restoring into a structurally identical
// configuration yields a cluster whose continuation is byte-identical
// to resuming the original in place — the property pm2load's
// -checkpoint/-restore flags and TestCheckpointRoundTrip pin.
//
// Reaching the quiescent instant is the interesting part. Checkpoint
// parks every runnable thread (freeze + detach, exactly the migration
// departure sequence, minus the eviction) and then single-steps the
// engine until no event is pending, re-parking anything that becomes
// runnable along the way — an in-flight migration lands and is parked
// on arrival, a sleeper's timer fires and the woken thread is parked
// before its next dispatch. All capture-side work runs muted, so
// taking a checkpoint charges no virtual time and perturbs nothing.
//
// Both continuations must observe the same derived state, so capture
// normalizes what it cannot serialize on the live cluster too: the
// mmapped free-slot cache is dropped, the gathered versions and
// delta-gather caches are cleared, and each bitmap journal is
// truncated at its captured version. The re-enqueue order of parked
// threads (TID order per node, nodes in rank order) is recorded and
// replayed identically by Resume and RestoreCluster.
//
// Refused configurations, all diagnosed with errors: a cluster with an
// installed fault plan (crash barriers are scheduled closures), the
// relocation baseline (host-side pointer registries), any node that
// used the non-migratable pm2_malloc heap, and threads still blocked
// on another thread once the engine drains (a joiner whose joinee was
// parked) — checkpoint at a phase boundary instead. Endpoint call-id
// counters are not carried: the quiescent instant has no outstanding
// calls, and the ids never influence timing or traces.
//
// An attached load balancer that registered through SetBalancer is no
// obstacle: it is paused for the drain and its round state rides an
// optional trailing section that upgrades the image to "pm2ckpt v2"
// (v1 images stay valid and unchanged). And while a capture refuses an
// installed fault plan, a *restore* accepts a fresh one whose events
// all lie after the checkpoint clock — the restart-and-refail
// experiment (see RestoreCluster).

// Checkpoint is a captured cluster state (see the package comment
// above). Build one with Cluster.Checkpoint, serialize with Encode,
// read back with DecodeCheckpoint, and reinstate with RestoreCluster.
type Checkpoint struct {
	// Structural identity of the configuration the capture was taken
	// under; RestoreCluster refuses a configuration that differs.
	// Workers deliberately absent: the parallel kernel is trace-
	// equivalent by construction, so a checkpoint taken at Workers=1
	// restores fine under Workers=4 and vice versa.
	Nodes           int
	Policy          string
	Arbiter         string
	Gather          string
	Dist            string
	Convoy          bool
	Pack            int
	HeartbeatMisses int

	// Engine clock at the quiescent instant.
	Now  simtime.Time
	Seq  uint64
	Step uint64

	Stats Stats
	Trace []string

	NodeStates []CheckpointNode

	// Balancer is the attached balancer's round state — nil when no
	// balancer had registered (SetBalancer) or it was idle at capture.
	// Its presence is what upgrades the serialization to "pm2ckpt v2";
	// captures without it stay byte-identical v1.
	Balancer *BalancerCheckpoint
	// MissedBeats is each rank's consecutive-heartbeat-miss counter at
	// capture, carried alongside Balancer (all zeros today: a capture
	// refuses an installed fault plan, so the counters cannot have
	// moved — they are serialized so a v2 reader never has to guess).
	MissedBeats []int
}

// BalancerCheckpoint is the round state of an attached periodic load
// balancer: enough to restart the cadence — and the Rounds/Moves
// accounting — at the same virtual instant on both continuations.
// Policy-internal memory is deliberately not serialized: every round
// re-samples all nodes before deciding, so the default (memoryless)
// threshold scheme decides identically on both sides; a policy with
// cross-round memory (a rotation cursor, contention history) may place
// differently after a restore than after an in-place resume.
type BalancerCheckpoint struct {
	// Period between rounds and the absolute time the next round was
	// scheduled for when the capture paused the balancer. The pending
	// round itself fires as a no-op during the quiescing drain, so the
	// restored/resumed balancer re-runs it at max(NextRoundAt, ck.Now).
	Period      simtime.Time
	NextRoundAt simtime.Time
	// StaleAfter and KeepAliveUntil echo the balancer's Config so an
	// attach-from-checkpoint needs no operator re-specification.
	StaleAfter     simtime.Time
	KeepAliveUntil simtime.Time
	// Threshold and MaxMoves are the negotiation-policy tuning knobs
	// the balancer applied at attach (0 = was left at policy default).
	Threshold int
	MaxMoves  int
	// Rounds and Moves are the accounting counters so far.
	Rounds int
	Moves  int
}

// BalancerCheckpointer is the checkpoint contract a periodic balancer
// registers through SetBalancer. CheckpointPause must stop the balancer
// from rescheduling (its already-pending round fires as a no-op) and
// return its round state, with NextRoundAt zero if no round was pending
// (the balancer had already drained — nothing to restart). Checkpoint
// Resume undoes the pause and, when NextRoundAt is set, reschedules the
// skipped round at max(NextRoundAt, now).
type BalancerCheckpointer interface {
	CheckpointPause() BalancerCheckpoint
	CheckpointResume(BalancerCheckpoint)
}

// SetBalancer registers an attached balancer for checkpoint
// cooperation. Without a registration, Checkpoint on a cluster with an
// active periodic balancer fails the quiesce budget (the balancer keeps
// scheduling rounds); with it, the balancer is paused, its round state
// rides the checkpoint's v2 section, and both continuations resume the
// cadence identically.
func (c *Cluster) SetBalancer(b BalancerCheckpointer) { c.balancer = b }

// CheckpointNode is one rank's share of a checkpoint.
type CheckpointNode struct {
	Busy                                           simtime.Time
	NextSeq                                        uint32
	Created, Finished, Faulted, Dispatches, Instrs uint64
	Sent, SentBytes, Dropped                       uint64
	// Journal is the bitmap-journal version stamp (0 when the
	// configuration runs no journal).
	Journal uint64
	Bitmap  []byte
	Exited  []uint32
	Threads []CheckpointThread
}

// CheckpointThread is one parked thread: its id and its slot image in
// the migration wire encoding (descriptor address, pack mode, slot
// groups and spans).
type CheckpointThread struct {
	TID   uint32
	Image []byte
}

// quiesceStepBudget bounds the drain: a cluster that schedules new
// events indefinitely (an attached load balancer, a KeepAliveUntil
// far in the future) never quiesces, and the budget turns that into an
// error instead of a hang.
const quiesceStepBudget = 4 << 20

// Checkpoint drives the cluster to a quiescent instant and captures
// its state. The cluster is left parked: call Resume to continue it in
// place, or drop it and RestoreCluster the capture elsewhere. On error
// the cluster may already be partially parked — Resume restarts
// whatever was parked.
func (c *Cluster) Checkpoint() (*Checkpoint, error) {
	if c.cfg.Policy != PolicyIso {
		return nil, fmt.Errorf("pm2: checkpoint requires the iso-address policy; relocated stacks keep host-side pointer registries no image captures")
	}
	if c.faults != nil {
		return nil, fmt.Errorf("pm2: checkpoint does not compose with an installed fault plan (crash barriers are scheduled closures)")
	}
	// An active balancer would reschedule itself forever and defeat the
	// drain below. A registered one (SetBalancer) is paused instead: its
	// pending round fires as a no-op during the drain and its state is
	// captured, so the resumed and the restored continuation restart the
	// cadence at the same virtual instant.
	if c.balancer != nil && c.pausedBalancer == nil {
		st := c.balancer.CheckpointPause()
		c.pausedBalancer = &st
	}
	if err := c.quiesce(); err != nil {
		return nil, err
	}
	for i, n := range c.nodes {
		if allocs, _ := n.heap.Counts(); allocs > 0 {
			return nil, fmt.Errorf("pm2: node %d used pm2_malloc (%d allocations); the node-local heap does not migrate and is not checkpointable", i, allocs)
		}
		for _, t := range n.sched.Snapshot() {
			return nil, fmt.Errorf("pm2: thread %#x on node %d is still blocked at the quiescent instant (joined thread parked?); checkpoint at a phase boundary instead", t.TID, i)
		}
	}

	ck := &Checkpoint{
		Nodes:           c.cfg.Nodes,
		Policy:          c.cfg.Policy.String(),
		Arbiter:         c.cfg.Arbiter.String(),
		Gather:          c.cfg.Gather.String(),
		Dist:            c.cfg.Dist.Name(),
		Convoy:          c.cfg.Convoy,
		Pack:            int(c.cfg.Pack),
		HeartbeatMisses: c.cfg.HeartbeatMisses,
		Stats:           cloneStats(c.stats),
		Trace:           c.log.Lines(),
	}
	ck.Now, ck.Seq, ck.Step = c.eng.Clock()
	if c.pausedBalancer != nil && c.pausedBalancer.NextRoundAt > 0 {
		// Only a balancer with a round actually pending upgrades the
		// image to v2; a drained one restores drained, and the capture
		// bytes stay v1 exactly as before balancers were capturable.
		bc := *c.pausedBalancer
		ck.Balancer = &bc
		ck.MissedBeats = make([]int, c.cfg.Nodes)
		copy(ck.MissedBeats, c.missedBeats)
	}

	for _, n := range c.nodes {
		d := n
		st := CheckpointNode{}
		d.actor.Mute(func() {
			// The mmapped free-slot cache is host state a restored
			// cluster starts without; drop it here too so both
			// continuations re-mmap (and charge) identically.
			d.slots.DropCache()
			for _, t := range d.parked {
				buf := c.bufPool.Get()
				d.packThreadImage(buf, t, 0, false)
				img := append([]byte(nil), buf.Bytes()...)
				c.bufPool.Put(buf)
				st.Threads = append(st.Threads, CheckpointThread{TID: t.TID, Image: img})
			}
		})
		// Derived gather state is rebuilt, not serialized: clear it on
		// the live cluster so the in-process continuation re-learns it
		// exactly like a restored one.
		d.deltaPeers, d.deltaOr = nil, nil
		if d.journal != nil {
			st.Journal = d.journal.Version()
			d.journal.Truncate()
		}
		st.Busy = d.actor.BusyUntil()
		st.NextSeq = d.sched.NextSeq()
		st.Created, st.Finished, st.Faulted, st.Dispatches, st.Instrs = d.sched.Stats()
		st.Exited = d.sched.ExitedTIDs()
		st.Sent, st.SentBytes, st.Dropped = d.ep.NIC().SentCounters()
		st.Bitmap = d.slots.Bitmap().Bytes()
		ck.NodeStates = append(ck.NodeStates, st)
	}
	return ck, nil
}

// quiesce parks every runnable thread and drains the engine. Parked
// threads dispatch nothing, so each pending event completes whatever
// protocol step it carries and the event count runs dry; threads a
// drained event makes runnable (migration arrivals, timer wakes) are
// parked before their next dispatch.
func (c *Cluster) quiesce() error {
	steps := 0
	for {
		c.parkSweep()
		// A thread carrying a pending migration request is left
		// unparked (its Thread object's MigrateTo mark has no place in
		// the image); kicking lets it dispatch, depart and re-park on
		// arrival as a plain resident.
		for _, n := range c.nodes {
			n.kick()
		}
		if c.eng.Pending() == 0 {
			return nil
		}
		if steps++; steps > quiesceStepBudget {
			return fmt.Errorf("pm2: cluster did not quiesce within %d events — periodic activity (an attached load balancer?) keeps scheduling work", quiesceStepBudget)
		}
		c.eng.Step()
	}
}

// parkSweep freezes and detaches every dispatchable thread, muted, in
// TID order per node and rank order across nodes — the canonical
// re-enqueue order both continuations replay.
func (c *Cluster) parkSweep() {
	for _, n := range c.nodes {
		d := n
		var ts []*marcel.Thread
		for _, t := range d.sched.Snapshot() {
			if !t.Blocked() && t.MigrateTo < 0 {
				ts = append(ts, t)
			}
		}
		if len(ts) == 0 {
			continue
		}
		d.actor.Mute(func() {
			for _, t := range ts {
				if err := d.sched.Freeze(t); err != nil {
					panic(fmt.Sprintf("pm2: freezing thread %#x for checkpoint: %v", t.TID, err))
				}
				d.sched.Detach(t)
				d.parked = append(d.parked, t)
			}
		})
	}
}

// Resume restarts a cluster Checkpoint left parked: every parked
// thread is re-enqueued (muted — the restore path charges nothing
// either) in capture order and the schedulers are kicked. Continue
// with Run as usual.
func (c *Cluster) Resume() {
	if c.balancer != nil && c.pausedBalancer != nil {
		c.balancer.CheckpointResume(*c.pausedBalancer)
		c.pausedBalancer = nil
	}
	for _, n := range c.nodes {
		d := n
		if len(d.parked) > 0 {
			d.actor.Mute(func() {
				for _, t := range d.parked {
					if _, err := d.sched.Thaw(t.Desc); err != nil {
						panic(fmt.Sprintf("pm2: resuming thread %#x: %v", t.TID, err))
					}
				}
			})
			d.parked = nil
		}
		d.kick()
	}
}

// RestoreCluster builds a fresh cluster over cfg and im and reinstates
// a checkpoint into it. cfg must be structurally identical to the
// configuration the checkpoint was taken under (node count, policy,
// arbiter, gather, distribution, convoy, pack mode, heartbeat lease);
// Workers and cost-model choices are free, and so is RPCTimeout — like
// Workers it must simply match between two restores whose continuations
// are to be compared. The returned cluster is running — its next Run
// continues the checkpointed execution, byte-identical to Resume on the
// original.
//
// cfg.Faults composes with a restore as long as every event lies
// strictly after the checkpoint clock: the restart-and-refail
// experiment. Events at or before ck.Now are rejected — their crash
// barriers could never fire (the restored clock is already past them),
// and a partition or slow window that straddles the capture instant
// describes a network state the checkpoint, taken on a quiescent
// healthy cluster, cannot contain.
func RestoreCluster(cfg Config, im *isa.Image, ck *Checkpoint) (*Cluster, error) {
	refail := cfg.Faults
	if !refail.Empty() {
		for _, ev := range refail.Events {
			if ev.At <= ck.Now {
				return nil, fmt.Errorf("pm2: restore fault plan does not compose: %s is not after the checkpoint clock t=%dus",
					ev, int64(ck.Now)/int64(simtime.Microsecond))
			}
		}
	}
	// The plan is installed after the clock restore below, not through
	// NewChecked: installation schedules one ambient barrier per crash
	// event, and RestoreClock refuses a non-empty engine.
	cfg.Faults = nil
	c, err := NewChecked(cfg, im)
	if err != nil {
		return nil, err
	}
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("pm2: checkpoint/config mismatch: %s is %v here, %v in the checkpoint", field, got, want)
	}
	rc := c.cfg // post-default values
	switch {
	case rc.Nodes != ck.Nodes:
		return nil, mismatch("node count", rc.Nodes, ck.Nodes)
	case rc.Policy.String() != ck.Policy:
		return nil, mismatch("migration policy", rc.Policy, ck.Policy)
	case rc.Arbiter.String() != ck.Arbiter:
		return nil, mismatch("arbiter", rc.Arbiter, ck.Arbiter)
	case rc.Gather.String() != ck.Gather:
		return nil, mismatch("gather strategy", rc.Gather, ck.Gather)
	case rc.Dist.Name() != ck.Dist:
		return nil, mismatch("slot distribution", rc.Dist.Name(), ck.Dist)
	case rc.Convoy != ck.Convoy:
		return nil, mismatch("convoy pipeline", rc.Convoy, ck.Convoy)
	case int(rc.Pack) != ck.Pack:
		return nil, mismatch("pack mode", rc.Pack, PackMode(ck.Pack))
	case rc.HeartbeatMisses != ck.HeartbeatMisses:
		return nil, mismatch("heartbeat lease", rc.HeartbeatMisses, ck.HeartbeatMisses)
	case len(ck.NodeStates) != len(c.nodes):
		return nil, fmt.Errorf("pm2: checkpoint carries %d node states for %d nodes", len(ck.NodeStates), len(c.nodes))
	}

	c.eng.RestoreClock(ck.Now, ck.Seq, ck.Step)
	c.stats = cloneStats(ck.Stats)
	c.log.Restore(ck.Trace)
	for i, n := range c.nodes {
		st := ck.NodeStates[i]
		n.actor.RestoreBusy(st.Busy)
		bm, err := bitmap.FromBytes(layout.SlotCount, st.Bitmap)
		if err != nil {
			return nil, fmt.Errorf("pm2: node %d checkpoint bitmap: %v", i, err)
		}
		if err := n.slots.RestoreBitmap(bm); err != nil {
			return nil, err
		}
		n.sched.RestoreStats(st.Created, st.Finished, st.Faulted, st.Dispatches, st.Instrs)
		n.sched.RestoreNextSeq(st.NextSeq)
		n.sched.RestoreExited(st.Exited)
		if n.journal != nil {
			n.journal.RestoreVersion(st.Journal)
		}
		n.ep.NIC().RestoreSentCounters(st.Sent, st.SentBytes, st.Dropped)

		d := n
		var thawErr error
		d.actor.Mute(func() {
			for _, th := range st.Threads {
				inner := madeleine.FromBytes(th.Image)
				desc := Addr(inner.U32())
				_ = inner.U64() // migration start stamp, unused here
				mode := PackMode(inner.U32())
				nGroups := int(inner.U32())
				d.installGroups(inner, mode, nGroups, false)
				t, err := d.sched.Thaw(desc)
				if err != nil {
					thawErr = fmt.Errorf("pm2: restoring thread %#x on node %d: %v", th.TID, i, err)
					return
				}
				if t.TID != th.TID {
					thawErr = fmt.Errorf("pm2: node %d image for thread %#x thawed as %#x", i, th.TID, t.TID)
					return
				}
			}
		})
		if thawErr != nil {
			return nil, thawErr
		}
		n.kick()
	}
	if !refail.Empty() {
		if err := c.InstallFaults(refail); err != nil {
			return nil, err
		}
		if len(ck.MissedBeats) == len(c.missedBeats) {
			copy(c.missedBeats, ck.MissedBeats)
		}
	}
	return c, nil
}

// cloneStats deep-copies a Stats value so neither side aliases the
// other's slices.
func cloneStats(s Stats) Stats {
	s.MigrationLatencies = append([]simtime.Time(nil), s.MigrationLatencies...)
	s.NegotiationLatencies = append([]simtime.Time(nil), s.NegotiationLatencies...)
	s.EvacuationLatencies = append([]simtime.Time(nil), s.EvacuationLatencies...)
	s.DetectionLatencies = append([]simtime.Time(nil), s.DetectionLatencies...)
	s.CohortSamples = append([]CohortSample(nil), s.CohortSamples...)
	return s
}

// --- pm2ckpt v1 wire format ---------------------------------------------
//
// Line-oriented text, sealed by a trailing FNV-1a-64 digest over every
// byte that precedes the digest line. Trace lines are carried verbatim
// behind a ">" sentinel. The format is versioned by its first line;
// DecodeCheckpoint rejects unknown versions, truncation and any byte
// flip (the digest covers the whole body).

const (
	ckptMagic = "pm2ckpt v1"
	// ckptMagicV2 marks an image carrying the optional balancer section
	// (one "balancer" line and one "missedbeats" line after the node
	// records). Everything before it is v1-identical, and v1 images —
	// no balancer at capture — still encode and decode unchanged.
	ckptMagicV2 = "pm2ckpt v2"
)

func fnvSum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Digest returns the seal a serialization of this checkpoint carries —
// what trace headers and replay tools record to name the state they
// started from.
func (ck *Checkpoint) Digest() uint64 { return fnvSum(ck.body()) }

// Encode serializes the checkpoint, digest-sealed.
func (ck *Checkpoint) Encode() []byte {
	body := ck.body()
	return append(body, fmt.Sprintf("digest %016x\n", fnvSum(body))...)
}

func (ck *Checkpoint) body() []byte {
	var b bytes.Buffer
	magic := ckptMagic
	if ck.Balancer != nil {
		magic = ckptMagicV2
	}
	fmt.Fprintf(&b, "%s\n", magic)
	fmt.Fprintf(&b, "config nodes=%d policy=%s arbiter=%s gather=%s dist=%s convoy=%t pack=%d heartbeat-misses=%d\n",
		ck.Nodes, ck.Policy, ck.Arbiter, ck.Gather, ck.Dist, ck.Convoy, ck.Pack, ck.HeartbeatMisses)
	fmt.Fprintf(&b, "clock now=%d seq=%d steps=%d\n", int64(ck.Now), ck.Seq, ck.Step)
	stats, err := json.Marshal(ck.Stats)
	if err != nil {
		panic(fmt.Sprintf("pm2: encoding checkpoint stats: %v", err))
	}
	fmt.Fprintf(&b, "stats %s\n", stats)
	fmt.Fprintf(&b, "trace %d\n", len(ck.Trace))
	for _, line := range ck.Trace {
		fmt.Fprintf(&b, ">%s\n", line)
	}
	for i, st := range ck.NodeStates {
		fmt.Fprintf(&b, "node %d busy=%d nextseq=%d created=%d finished=%d faulted=%d dispatches=%d instrs=%d sent=%d sentbytes=%d dropped=%d journal=%d\n",
			i, int64(st.Busy), st.NextSeq, st.Created, st.Finished, st.Faulted, st.Dispatches, st.Instrs,
			st.Sent, st.SentBytes, st.Dropped, st.Journal)
		fmt.Fprintf(&b, "bitmap %s\n", hex.EncodeToString(st.Bitmap))
		b.WriteString("exited")
		for _, tid := range st.Exited {
			fmt.Fprintf(&b, " %d", tid)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "threads %d\n", len(st.Threads))
		for _, th := range st.Threads {
			fmt.Fprintf(&b, "thread tid=%d image=%s\n", th.TID, hex.EncodeToString(th.Image))
		}
	}
	if bc := ck.Balancer; bc != nil {
		fmt.Fprintf(&b, "balancer period=%d next=%d staleafter=%d keepalive=%d threshold=%d maxmoves=%d rounds=%d moves=%d\n",
			int64(bc.Period), int64(bc.NextRoundAt), int64(bc.StaleAfter), int64(bc.KeepAliveUntil),
			bc.Threshold, bc.MaxMoves, bc.Rounds, bc.Moves)
		b.WriteString("missedbeats")
		for _, m := range ck.MissedBeats {
			fmt.Fprintf(&b, " %d", m)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// DecodeCheckpoint parses and digest-verifies a pm2ckpt v1 or v2
// serialization.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	idx := bytes.LastIndex(data, []byte("\ndigest "))
	if idx < 0 {
		return nil, fmt.Errorf("pm2: checkpoint has no digest trailer (truncated?)")
	}
	body := data[:idx+1]
	var want uint64
	if _, err := fmt.Sscanf(string(data[idx+1:]), "digest %x", &want); err != nil {
		return nil, fmt.Errorf("pm2: unreadable checkpoint digest trailer: %v", err)
	}
	if got := fnvSum(body); got != want {
		return nil, fmt.Errorf("pm2: checkpoint digest mismatch: computed %016x, sealed %016x (corrupt or truncated)", got, want)
	}

	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	pos := 0
	next := func() (string, error) {
		if pos >= len(lines) {
			return "", fmt.Errorf("pm2: checkpoint ends early at line %d", pos+1)
		}
		pos++
		return lines[pos-1], nil
	}
	expect := func(format string, args ...any) error {
		line, err := next()
		if err != nil {
			return err
		}
		if n, err := fmt.Sscanf(line, format, args...); err != nil || n != len(args) {
			return fmt.Errorf("pm2: checkpoint line %d: want %q, got %q", pos, format, line)
		}
		return nil
	}

	v2 := false
	if line, err := next(); err != nil {
		return nil, err
	} else if line == ckptMagicV2 {
		v2 = true
	} else if line != ckptMagic {
		return nil, fmt.Errorf("pm2: not a %s file (starts %q)", ckptMagic, line)
	}
	ck := &Checkpoint{}
	if err := expect("config nodes=%d policy=%s arbiter=%s gather=%s dist=%s convoy=%t pack=%d heartbeat-misses=%d",
		&ck.Nodes, &ck.Policy, &ck.Arbiter, &ck.Gather, &ck.Dist, &ck.Convoy, &ck.Pack, &ck.HeartbeatMisses); err != nil {
		return nil, err
	}
	var now int64
	if err := expect("clock now=%d seq=%d steps=%d", &now, &ck.Seq, &ck.Step); err != nil {
		return nil, err
	}
	ck.Now = simtime.Time(now)
	statsLine, err := next()
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(statsLine, "stats ") {
		return nil, fmt.Errorf("pm2: checkpoint line %d: want stats, got %q", pos, statsLine)
	}
	if err := json.Unmarshal([]byte(statsLine[len("stats "):]), &ck.Stats); err != nil {
		return nil, fmt.Errorf("pm2: checkpoint stats: %v", err)
	}
	var nTrace int
	if err := expect("trace %d", &nTrace); err != nil {
		return nil, err
	}
	for i := 0; i < nTrace; i++ {
		line, err := next()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(line, ">") {
			return nil, fmt.Errorf("pm2: checkpoint line %d: want trace line, got %q", pos, line)
		}
		ck.Trace = append(ck.Trace, line[1:])
	}
	for i := 0; i < ck.Nodes; i++ {
		var (
			rank int
			busy int64
			st   CheckpointNode
		)
		if err := expect("node %d busy=%d nextseq=%d created=%d finished=%d faulted=%d dispatches=%d instrs=%d sent=%d sentbytes=%d dropped=%d journal=%d",
			&rank, &busy, &st.NextSeq, &st.Created, &st.Finished, &st.Faulted, &st.Dispatches, &st.Instrs,
			&st.Sent, &st.SentBytes, &st.Dropped, &st.Journal); err != nil {
			return nil, err
		}
		if rank != i {
			return nil, fmt.Errorf("pm2: checkpoint node records out of order: want %d, got %d", i, rank)
		}
		st.Busy = simtime.Time(busy)
		var bmHex string
		if err := expect("bitmap %s", &bmHex); err != nil {
			return nil, err
		}
		if st.Bitmap, err = hex.DecodeString(bmHex); err != nil {
			return nil, fmt.Errorf("pm2: checkpoint node %d bitmap: %v", i, err)
		}
		exLine, err := next()
		if err != nil {
			return nil, err
		}
		if exLine != "exited" && !strings.HasPrefix(exLine, "exited ") {
			return nil, fmt.Errorf("pm2: checkpoint line %d: want exited, got %q", pos, exLine)
		}
		for _, f := range strings.Fields(exLine)[1:] {
			var tid uint32
			if _, err := fmt.Sscanf(f, "%d", &tid); err != nil {
				return nil, fmt.Errorf("pm2: checkpoint node %d exited tid %q: %v", i, f, err)
			}
			st.Exited = append(st.Exited, tid)
		}
		var nThreads int
		if err := expect("threads %d", &nThreads); err != nil {
			return nil, err
		}
		for k := 0; k < nThreads; k++ {
			var (
				th     CheckpointThread
				imgHex string
			)
			if err := expect("thread tid=%d image=%s", &th.TID, &imgHex); err != nil {
				return nil, err
			}
			if th.Image, err = hex.DecodeString(imgHex); err != nil {
				return nil, fmt.Errorf("pm2: checkpoint thread %#x image: %v", th.TID, err)
			}
			st.Threads = append(st.Threads, th)
		}
		ck.NodeStates = append(ck.NodeStates, st)
	}
	if v2 {
		bc := &BalancerCheckpoint{}
		var period, nextAt, stale, keep int64
		if err := expect("balancer period=%d next=%d staleafter=%d keepalive=%d threshold=%d maxmoves=%d rounds=%d moves=%d",
			&period, &nextAt, &stale, &keep, &bc.Threshold, &bc.MaxMoves, &bc.Rounds, &bc.Moves); err != nil {
			return nil, err
		}
		bc.Period, bc.NextRoundAt = simtime.Time(period), simtime.Time(nextAt)
		bc.StaleAfter, bc.KeepAliveUntil = simtime.Time(stale), simtime.Time(keep)
		ck.Balancer = bc
		mbLine, err := next()
		if err != nil {
			return nil, err
		}
		if mbLine != "missedbeats" && !strings.HasPrefix(mbLine, "missedbeats ") {
			return nil, fmt.Errorf("pm2: checkpoint line %d: want missedbeats, got %q", pos, mbLine)
		}
		for _, f := range strings.Fields(mbLine)[1:] {
			var m int
			if _, err := fmt.Sscanf(f, "%d", &m); err != nil {
				return nil, fmt.Errorf("pm2: checkpoint missedbeats %q: %v", f, err)
			}
			ck.MissedBeats = append(ck.MissedBeats, m)
		}
	}
	if pos != len(lines) {
		return nil, fmt.Errorf("pm2: %d trailing checkpoint lines after node records", len(lines)-pos)
	}
	return ck, nil
}

// DistFromName resolves a Distribution.Name() string — the form a
// checkpoint records — back to the distribution it names, so a restorer
// can rebuild Config.Dist from the capture instead of asking the
// operator to re-specify it.
func DistFromName(s string) (core.Distribution, error) {
	switch {
	case s == "round-robin":
		return core.RoundRobin{}, nil
	case s == "partition":
		return core.Partition{}, nil
	default:
		var k int
		if _, err := fmt.Sscanf(s, "block-cyclic(%d)", &k); err == nil && k > 0 {
			return core.BlockCyclic{K: k}, nil
		}
	}
	return nil, fmt.Errorf("pm2: unknown distribution %q in checkpoint", s)
}
