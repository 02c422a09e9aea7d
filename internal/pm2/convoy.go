package pm2

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/madeleine"
	"repro/internal/marcel"
	"repro/internal/simtime"
)

// The zero-copy scatter-gather migration pipeline (Config.Convoy).
//
// The paper's data path copies every migrated span three times on the host
// (slot memory → pack buffer → outer send buffer → NIC) and charges the
// cost model a memcpy on each side of the wire, then ships one Madeleine
// message per thread even when a balancing round moves several threads to
// the same destination. BIP's long-message mode was zero-copy on the real
// hardware — the NIC DMAs directly from and into user memory — so this
// pipeline models exactly that:
//
//   - the packer borrows page aliases of every span (vmem.ReadAliases +
//     Buffer.PackBytesVec); nothing is copied until the NIC gathers the
//     message body, and the CPUs on both sides are charged one DMA-setup
//     per span instead of a per-byte copy (Endpoint.SendBodyZeroCopy);
//   - k threads bound for one destination travel as a single chConvoy
//     message: one express header, one send/receive overhead and one wire
//     latency for the whole batch, with wire serialization still covering
//     every payload byte;
//   - the destination installs all slot groups, rebuilds the free lists
//     of used-mode data groups, thaws every thread and kicks the
//     scheduler once.
//
// Everything here is off by default; with Config.Convoy unset, migrations
// take the copying single-thread path and every golden trace stays
// byte-identical.

// Convoy wire format (body of a chConvoy message):
//
//	k u32 | k× thread record (see packThreadImage)

// convoyMigrateOut packs the already-frozen, detached threads into one
// convoy message for dest. Must run on the node's actor.
func (n *Node) convoyMigrateOut(ts []*marcel.Thread, dest int) {
	start := n.actor.Now()
	buf := n.c.bufPool.Get()
	buf.PackU32(uint32(len(ts)))
	var groups []core.SlotGroup
	for _, t := range ts {
		groups = append(groups, n.packThreadImage(buf, t, start, true)...)
	}
	// Send first (the gather consumes the page aliases), then set the
	// source areas free — the bits change on no node (paper step 1).
	n.ep.SendBodyZeroCopy(dest, chConvoy, buf)
	n.c.bufPool.Put(buf)
	n.evictGroups(groups)
}

// MigrateBatch preemptively migrates the given resident threads to dest
// as one convoy: they are frozen and detached on the spot (the caller's
// event is a scheduling boundary — no quantum is in progress) and shipped
// in a single zero-copy message. Threads that are blocked, already marked
// for migration, or no longer resident are skipped. When the convoy
// pipeline is off — or the relocation baseline is active — it falls back
// to per-thread RequestMigration, preserving the legacy behavior exactly.
// Must be called from the node's actor (Cluster.At); returns the number
// of threads that will move.
func (n *Node) MigrateBatch(tids []uint32, dest int) int {
	if dest < 0 || dest >= n.c.Nodes() || dest == n.id {
		return 0
	}
	eligible := func(t *marcel.Thread) bool { return !t.Blocked() && t.MigrateTo < 0 }
	if !n.c.cfg.Convoy || n.c.cfg.Policy != PolicyIso {
		moved := 0
		for _, tid := range tids {
			if t, ok := n.sched.Lookup(tid); ok && eligible(t) && n.sched.RequestMigration(tid, dest) {
				moved++
			}
		}
		return moved
	}
	var ts []*marcel.Thread
	for _, tid := range tids {
		if t, ok := n.sched.Lookup(tid); ok && eligible(t) {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return 0
	}
	for _, t := range ts {
		if err := n.sched.Freeze(t); err != nil {
			panic(fmt.Sprintf("pm2: freezing thread %#x for convoy: %v", t.TID, err))
		}
		n.sched.Detach(t)
	}
	n.convoyMigrateOut(ts, dest)
	return len(ts)
}

// onConvoyMsg is the destination half: install every thread's slot
// groups, then thaw them all and kick the scheduler once. The whole
// handler is one receive event — the convoy pays one express header and
// one receive overhead however many threads it carries.
func (n *Node) onConvoyMsg(src int, msg *madeleine.Buffer) {
	inner := madeleine.FromBytes(msg.BytesSection())
	k := int(inner.U32())
	if inner.Err() != nil || k <= 0 {
		panic("pm2: corrupt convoy message")
	}
	descs := make([]Addr, 0, k)
	starts := make([]simtime.Time, 0, k)
	installed := 0
	for i := 0; i < k; i++ {
		desc := Addr(inner.U32())
		start := simtime.Time(inner.U64())
		mode := PackMode(inner.U32())
		nGroups := int(inner.U32())
		got, err := n.installGroups(inner, mode, nGroups, true)
		if err != nil {
			panic(err)
		}
		installed += got
		if inner.Err() != nil {
			panic("pm2: corrupt convoy message")
		}
		descs = append(descs, desc)
		starts = append(starts, start)
	}

	// All slot groups are in place: resume every thread (paper step 3),
	// then run the scheduler once for the whole batch.
	lats := make([]simtime.Time, len(descs))
	for i, desc := range descs {
		if _, err := n.sched.Thaw(desc); err != nil {
			panic(fmt.Sprintf("pm2: thawing convoy thread on node %d: %v", n.id, err))
		}
		lats[i] = n.actor.Now() - starts[i]
	}
	n.kick()
	n.actor.Commit(func() {
		for _, lat := range lats {
			n.c.stats.Migrations++
			n.c.stats.MigrationLatencies = append(n.c.stats.MigrationLatencies, lat)
		}
		n.c.stats.Convoys++
		n.c.stats.MigratedBytes += uint64(installed)
	})
}
