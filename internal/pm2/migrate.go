package pm2

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/marcel"
)

// Iso-address migration (paper §2 steps 1–3 with the §4.2 slot machinery):
//
//  1. the thread is frozen (registers spilled into its in-memory
//     descriptor) and its slot groups are packed into a Madeleine buffer —
//     whole slots or just the used extents, per Config.Pack. The source
//     mappings are destroyed; ownership bits change on no node.
//  2. the buffer travels over BIP.
//  3. the destination mmaps the *same* virtual ranges, copies the extents,
//     rebuilds free lists for used-mode data groups, and re-enqueues the
//     thread. Nothing is relocated and no pointer is updated.

// migrateOut is the marcel Migrate hook: the thread is already frozen and
// detached.
func (n *Node) migrateOut(t *marcel.Thread, dest int) {
	switch n.c.cfg.Policy {
	case PolicyIso:
		if n.c.cfg.Convoy {
			n.convoyMigrateOut([]*marcel.Thread{t}, dest)
			return
		}
		n.isoMigrateOut(t, dest)
	case PolicyRelocate:
		n.relocMigrateOut(t, dest)
	default:
		panic("pm2: unknown migration policy")
	}
}

// freezeDetach freezes the threads ts (registers spilled into their
// descriptors) and detaches them, ready to pack; why names the caller.
func (n *Node) freezeDetach(ts []*marcel.Thread, why string) {
	for _, t := range ts {
		if err := n.sched.Freeze(t); err != nil {
			panic(fmt.Sprintf("pm2: freezing thread %#x for %s: %v", t.TID, why, err))
		}
		n.sched.Detach(t)
	}
}

// evictGroups sets the packed memory areas free on the source (paper step
// 1); the ownership bits stay 0 everywhere — the thread still owns its
// slots.
func (n *Node) evictGroups(groups []core.SlotGroup) {
	for _, g := range groups {
		if err := n.slots.Evict(layout.SlotIndex(g.Base), g.NSlots); err != nil {
			panic(err)
		}
	}
}

// isoMigrateOut is the copying path. Its pack charged the memcpy of the
// image into the buffer, so the source munmaps precede the send in
// virtual time; host-side the buffer borrows the pages until the send
// gathers them, so they are unmapped only then.
func (n *Node) isoMigrateOut(t *marcel.Thread, dest int) {
	buf := n.c.bufPool.Get()
	groups := n.packThreadImage(buf, t, n.actor.Now(), false)
	for _, g := range groups {
		n.slots.ChargeEvict(g.NSlots)
	}
	n.ep.SendBody(dest, chMigrate, buf)
	n.c.bufPool.Put(buf)
	for _, g := range groups {
		if err := n.slots.UnmapEvicted(layout.SlotIndex(g.Base), g.NSlots); err != nil {
			panic(err)
		}
	}
}

// onMigrateMsg is the destination half.
func (n *Node) onMigrateMsg(src int, msg *madeleine.Buffer) {
	_, installed, err := n.installThread(msg.BytesSection())
	if err != nil {
		panic(fmt.Sprintf("pm2: migrating a thread to node %d: %v", n.id, err))
	}
	n.kick()

	n.c.stats.Migrations++
	n.c.stats.MigratedBytes += uint64(installed)
	n.c.stats.MigrationLatencies = append(n.c.stats.MigrationLatencies, n.actor.Now()-n.img.start)
}
