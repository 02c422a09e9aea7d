package pm2

import (
	"repro/internal/madeleine"
	"repro/internal/marcel"
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

// convoyMigrateOut packs the already-frozen, detached threads into one
// convoy message for dest. Must run on the node's actor.
func (n *Node) convoyMigrateOut(ts []*marcel.Thread, dest int) {
	buf := n.c.bufPool.Get()
	groups := n.packConvoy(buf, ts, n.actor.Now(), true)
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
	n.freezeDetach(ts, "convoy")
	n.convoyMigrateOut(ts, dest)
	return len(ts)
}

// onConvoyMsg is the destination half: install every thread's slot
// groups, then thaw them all and kick the scheduler once. The whole
// handler is one receive event — the convoy pays one express header and
// one receive overhead however many threads it carries.
func (n *Node) onConvoyMsg(src int, msg *madeleine.Buffer) {
	lats, installed := n.installConvoy(msg.BytesSection(), true)
	n.c.stats.Migrations += len(lats)
	n.c.stats.MigrationLatencies = append(n.c.stats.MigrationLatencies, lats...)
	n.c.stats.Convoys++
	n.c.stats.MigratedBytes += uint64(installed)
}
