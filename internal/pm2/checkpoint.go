package pm2

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/marcel"
	"repro/internal/simtime"
)

// Cluster checkpoint/restore.
//
// A checkpoint is the cluster's complete virtual-time state at a
// quiescent instant, serialized to the digest-sealed "pm2ckpt v3"
// image: the engine clock, every node's busy horizon, slot bitmap,
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
// installed fault plan (crash events are scheduled closures), the
// relocation baseline (host-side pointer registries), any node that
// used the non-migratable pm2_malloc heap, and threads still blocked
// on another thread once the engine drains (a joiner whose joinee was
// parked) — checkpoint at a phase boundary instead. Endpoint call-id
// counters are not carried: the quiescent instant has no outstanding
// calls, and the ids never influence timing or traces.
//
// An attached load balancer that registered through SetBalancer is no
// obstacle: it is paused for the drain and its round state rides the
// image's Balancer field. And while a capture refuses an installed
// fault plan, a *restore* accepts a fresh one whose events all lie
// after the checkpoint clock — the restart-and-refail experiment (see
// RestoreCluster).

// Checkpoint is a captured cluster state (see the package comment
// above). Build one with Cluster.Checkpoint, serialize with Encode,
// read back with DecodeCheckpoint, and reinstate with RestoreCluster.
type Checkpoint struct {
	// Structural identity of the configuration the capture was taken
	// under; RestoreCluster refuses a configuration that differs.
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
	Balancer *BalancerCheckpoint
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
// rides the checkpoint's Balancer field, and both continuations resume
// the cadence identically.
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
		return nil, fmt.Errorf("pm2: checkpoint does not compose with an installed fault plan (crash events are scheduled closures)")
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
		Stats:           c.stats.clone(),
		Trace:           c.log.Lines(),
	}
	ck.Now, ck.Seq, ck.Step = c.eng.Clock()
	if c.pausedBalancer != nil && c.pausedBalancer.NextRoundAt > 0 {
		// Only a balancer with a round actually pending is carried; a
		// drained one restores drained.
		bc := *c.pausedBalancer
		ck.Balancer = &bc
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
				img := buf.CopyBytes()
				c.bufPool.Put(buf)
				st.Threads = append(st.Threads, CheckpointThread{TID: t.TID, Image: img})
			}
		})
		// Derived gather state is rebuilt, not serialized: clear it on
		// the live cluster so the in-process continuation re-learns it
		// exactly like a restored one.
		d.dropViews()
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
		d.actor.Mute(func() { d.freezeDetach(ts, "checkpoint") })
		d.parked = append(d.parked, ts...)
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
// configuration the checkpoint was taken under (ck.Config: node count,
// policy, arbiter, gather, distribution, convoy, pack mode, heartbeat
// lease); cost-model choices are free, and so is RPCTimeout — it must
// simply match between two restores whose continuations are to be
// compared. The returned cluster is running — its next Run continues
// the checkpointed execution, byte-identical to Resume on the original.
//
// cfg.Faults composes with a restore as long as every event lies
// strictly after the checkpoint clock: the restart-and-refail
// experiment. Events at or before ck.Now are rejected — their crash
// events could never fire (the restored clock is already past them),
// and a partition or slow window that straddles the capture instant
// describes a network state the checkpoint, taken on a quiescent
// healthy cluster, cannot contain.
func RestoreCluster(cfg Config, im *isa.Image, ck *Checkpoint) (*Cluster, error) {
	want, err := ck.Config()
	if err != nil {
		return nil, err
	}
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
	// NewChecked: installation schedules one engine event per crash,
	// and RestoreClock refuses a non-empty engine.
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
	case rc.Nodes != want.Nodes:
		return nil, mismatch("node count", rc.Nodes, want.Nodes)
	case rc.Policy != want.Policy:
		return nil, mismatch("migration policy", rc.Policy, want.Policy)
	case rc.Arbiter != want.Arbiter:
		return nil, mismatch("arbiter", rc.Arbiter, want.Arbiter)
	case rc.Gather != want.Gather:
		return nil, mismatch("gather strategy", rc.Gather, want.Gather)
	case rc.Dist.Name() != want.Dist.Name():
		return nil, mismatch("slot distribution", rc.Dist.Name(), want.Dist.Name())
	case rc.Convoy != want.Convoy:
		return nil, mismatch("convoy pipeline", rc.Convoy, want.Convoy)
	case rc.Pack != want.Pack:
		return nil, mismatch("pack mode", rc.Pack, want.Pack)
	case rc.HeartbeatMisses != want.HeartbeatMisses:
		return nil, mismatch("heartbeat lease", rc.HeartbeatMisses, want.HeartbeatMisses)
	case len(ck.NodeStates) != len(c.nodes):
		return nil, fmt.Errorf("pm2: checkpoint carries %d node states for %d nodes", len(ck.NodeStates), len(c.nodes))
	}

	// A sealed checkpoint can still carry images no runtime produced:
	// the digest guards against accidental corruption, not against a
	// crafted or re-sealed file. Validate everything before the first
	// mutation, so a bad image is an error instead of a panic halfway
	// through installing it.
	bms, err := checkRestoreImages(ck)
	if err != nil {
		return nil, err
	}
	c.eng.RestoreClock(ck.Now, ck.Seq, ck.Step)
	c.stats = ck.Stats.clone()
	c.log.Restore(ck.Trace)
	for i, n := range c.nodes {
		st := ck.NodeStates[i]
		n.actor.RestoreBusy(st.Busy)
		if err := n.slots.RestoreBitmap(bms[i]); err != nil {
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
		var restoreErr error
		d.actor.Mute(func() {
			for _, th := range st.Threads {
				t, _, err := d.installThread(th.Image)
				if err == nil && t.TID != th.TID {
					err = fmt.Errorf("image thawed as thread %#x", t.TID)
				}
				if err != nil {
					restoreErr = fmt.Errorf("pm2: restoring thread %#x on node %d: %v", th.TID, i, err)
					return
				}
			}
		})
		if restoreErr != nil {
			return nil, restoreErr
		}
		n.kick()
	}
	if !refail.Empty() {
		if err := c.InstallFaults(refail); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checkRestoreImages decodes every node bitmap and every thread image of
// ck without touching any node. A slot may back one thread group only,
// and never one that a node bitmap lists as free.
func checkRestoreImages(ck *Checkpoint) ([]*bitmap.Bitmap, error) {
	bms := make([]*bitmap.Bitmap, len(ck.NodeStates))
	claimed := bitmap.New(layout.SlotCount)
	for i, st := range ck.NodeStates {
		bm, err := bitmap.FromBytes(layout.SlotCount, st.Bitmap)
		if err != nil {
			return nil, fmt.Errorf("pm2: node %d checkpoint bitmap: %v", i, err)
		}
		bms[i] = bm
		claimed.Or(bm)
	}
	var im threadImage
	for i, st := range ck.NodeStates {
		for _, th := range st.Threads {
			if err := im.decodeAll(th.Image, claimed); err != nil {
				return nil, fmt.Errorf("pm2: node %d image of thread %#x: %v", i, th.TID, err)
			}
		}
	}
	return bms, nil
}

// --- the pm2ckpt v3 image ----------------------------------------------
//
// Three parts: the magic line, the Checkpoint as one encoding/json
// document (byte fields in base64), and a "digest %016x" line carrying
// the FNV-1a-64 of every byte before it. DecodeCheckpoint verifies the
// seal, decodes strictly (no unknown field, nothing after the
// document) and checks the node count before anything is sized by it.
// The seal guards against accidental corruption only; RestoreCluster
// validates every bitmap and thread image before installing any.

const ckptMagic = "pm2ckpt v3\n"

func fnvSum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// sealOf returns the digest line that seals body.
func sealOf(body []byte) string { return fmt.Sprintf("digest %016x\n", fnvSum(body)) }

// Digest returns the seal a serialization of this checkpoint carries —
// what trace headers and replay tools record to name the state they
// started from.
func (ck *Checkpoint) Digest() uint64 { return fnvSum(ck.unsealed()) }

// Encode serializes the checkpoint, digest-sealed.
func (ck *Checkpoint) Encode() []byte {
	b := ck.unsealed()
	return append(b, sealOf(b)...)
}

// unsealed returns the image up to its digest line.
func (ck *Checkpoint) unsealed() []byte {
	doc, err := json.Marshal(ck)
	if err != nil {
		panic(fmt.Sprintf("pm2: encoding checkpoint: %v", err))
	}
	b := make([]byte, 0, len(ckptMagic)+len(doc)+len("\ndigest 0123456789abcdef\n"))
	b = append(b, ckptMagic...)
	b = append(b, doc...)
	return append(b, '\n')
}

// DecodeCheckpoint verifies and parses a pm2ckpt v3 image.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	idx := bytes.LastIndex(data, []byte("\ndigest "))
	if idx < 0 {
		return nil, fmt.Errorf("pm2: checkpoint has no digest trailer (truncated?)")
	}
	body, trailer := data[:idx+1], data[idx+1:]
	if seal := sealOf(body); string(trailer) != seal {
		return nil, fmt.Errorf("pm2: checkpoint digest mismatch: trailer %.26q, contents seal as %q (corrupt or truncated)", trailer, seal)
	}
	doc, ok := bytes.CutPrefix(body, []byte(ckptMagic))
	if !ok {
		first, _, _ := bytes.Cut(body, []byte("\n"))
		return nil, fmt.Errorf("pm2: not a %s image (starts %.32q)", ckptMagic[:len(ckptMagic)-1], first)
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	ck := &Checkpoint{}
	if err := dec.Decode(ck); err != nil {
		return nil, fmt.Errorf("pm2: checkpoint: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("pm2: checkpoint: data after the document")
	}
	switch {
	case ck.Nodes < 1:
		return nil, fmt.Errorf("pm2: checkpoint of %d nodes", ck.Nodes)
	case len(ck.NodeStates) != ck.Nodes:
		return nil, fmt.Errorf("pm2: checkpoint carries %d node states for %d nodes", len(ck.NodeStates), ck.Nodes)
	}
	return ck, nil
}

// Config returns the structural configuration the checkpoint was taken
// under — everything RestoreCluster requires to match. Cost model,
// placement, RPCTimeout and faults are left for the caller to set.
func (ck *Checkpoint) Config() (Config, error) {
	if ck.Policy != PolicyIso.String() {
		return Config{}, fmt.Errorf("pm2: checkpoint taken under the %q policy; only %s clusters are captured", ck.Policy, PolicyIso)
	}
	dist, err := distFromName(ck.Dist)
	if err != nil {
		return Config{}, err
	}
	gather, err := ParseGatherMode(ck.Gather)
	if err != nil {
		return Config{}, err
	}
	arbiter, err := ParseArbiterMode(ck.Arbiter)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Nodes:           ck.Nodes,
		Policy:          PolicyIso,
		Dist:            dist,
		Gather:          gather,
		Arbiter:         arbiter,
		Convoy:          ck.Convoy,
		Pack:            PackMode(ck.Pack),
		HeartbeatMisses: ck.HeartbeatMisses,
	}, nil
}

// distFromName resolves a Distribution.Name() string — the form a
// checkpoint records — back to the distribution it names.
func distFromName(s string) (core.Distribution, error) {
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
