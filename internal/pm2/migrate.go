package pm2

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/marcel"
	"repro/internal/simtime"
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

// packThreadImage appends one frozen thread's migration record to buf:
//
//	desc u32 | start u64 | pack-mode u32 | nGroups u32
//	per group: base u32 | nSlots u32 | kind u32 | nSpans u32
//	  per span: off u32 | length-prefixed data
//
// The span payloads are borrowed (PackBytesVec over page aliases), never
// copied host-side: they are gathered exactly once, into the wire body, at
// send time. The page aliases stay valid past Evict — the simulator never
// recycles page arrays — and the send materializes synchronously, so the
// caller may evict immediately after the message leaves. zeroCopy selects
// the charge discipline: the legacy path pays the paper's per-byte pack
// memcpy, the scatter-gather path pays one DMA-setup per span. The
// returned groups are what the caller must Evict once the message is sent.
func (n *Node) packThreadImage(buf *madeleine.Buffer, t *marcel.Thread, start simtime.Time, zeroCopy bool) []core.SlotGroup {
	model := n.c.cfg.Model
	ar := n.sched.Arena(t)
	groups, err := ar.Groups()
	if err != nil {
		panic(fmt.Sprintf("pm2: packing thread %#x: %v", t.TID, err))
	}

	buf.PackU32(t.Desc)
	buf.PackU64(uint64(start))
	buf.PackU32(uint32(n.c.cfg.Pack))
	buf.PackU32(uint32(len(groups)))

	for _, g := range groups {
		h, err := core.ReadSlotHeader(n.space, g.Base)
		if err != nil {
			panic(err)
		}
		var spans []core.Span
		if n.c.cfg.Pack == PackWhole {
			spans = core.WholeSpan(&h)
		} else {
			switch g.Kind {
			case core.KindStack:
				// The live stack runs from the frozen SP to the
				// slot end; SP is in the descriptor we just wrote.
				spans, err = core.UsedSpansStack(&h, marcel.DescSize, t.Regs.SP)
			case core.KindData:
				spans, err = core.UsedSpansData(n.space, &h)
			default:
				err = fmt.Errorf("bad slot kind %d", g.Kind)
			}
			if err != nil {
				panic(fmt.Sprintf("pm2: packing thread %#x: %v", t.TID, err))
			}
		}
		buf.PackU32(g.Base)
		buf.PackU32(uint32(g.NSlots))
		buf.PackU32(uint32(g.Kind))
		buf.PackU32(uint32(len(spans)))
		for _, s := range spans {
			frags, err := n.space.ReadAliases(g.Base+Addr(s.Off), int(s.Len))
			if err != nil {
				panic(err)
			}
			if zeroCopy {
				n.actor.Charge(model.DmaSetup(1))
			} else {
				n.actor.Charge(model.Memcpy(int(s.Len)))
			}
			buf.PackU32(s.Off)
			buf.PackBytesVec(frags)
		}
	}
	return groups
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

func (n *Node) isoMigrateOut(t *marcel.Thread, dest int) {
	buf := n.c.bufPool.Get()
	groups := n.packThreadImage(buf, t, n.actor.Now(), false)
	n.evictGroups(groups)
	n.ep.SendBody(dest, chMigrate, buf)
	n.c.bufPool.Put(buf)
}

// freshPageBytes returns how many bytes of the extent [lo, hi) lie in
// pages not yet recorded in touched, and marks every page the extent
// covers as touched. It is the first-touch accounting unit of migration
// install: the portion of a span landing on already-touched pages costs
// no zero-fill, because those pages were cleared when an earlier span
// faulted them in. A page's clear is deliberately attributed to the
// first-touching span's bytes rather than to the full PageSize: the
// cost model's ZeroFill constant is calibrated byte-proportionally
// (Figure 11, the §5 migration headline), and this keeps single-span
// groups — every calibrated path — charged exactly as before while
// removing the repeat charges for multi-span groups.
func freshPageBytes(touched map[Addr]bool, lo, hi Addr) int {
	fresh := 0
	for page := layout.PageFloor(lo); page < hi; page += layout.PageSize {
		if touched[page] {
			continue
		}
		touched[page] = true
		s, e := lo, hi
		if page > s {
			s = page
		}
		if page+layout.PageSize < e {
			e = page + layout.PageSize
		}
		fresh += int(e - s)
	}
	return fresh
}

// errCorruptMigration reports a thread record whose span list ends early.
var errCorruptMigration = errors.New("pm2: corrupt migration message")

// installGroups unpacks and installs nGroups slot groups of one thread
// record from inner, charging copy (or DMA-setup) and first-touch costs,
// and returns the payload bytes installed. Shared by the single-thread,
// convoy and evacuation receive paths, which panic on its error — a
// runtime-built record never fails — and by the checkpoint restore,
// which returns it: a re-sealed checkpoint can carry a group whose
// contents no runtime produced. A failed install leaves the node half
// built.
func (n *Node) installGroups(inner *madeleine.Buffer, mode PackMode, nGroups int, zeroCopy bool) (int, error) {
	model := n.c.cfg.Model
	installed := 0
	if n.touchScratch == nil {
		n.touchScratch = make(map[Addr]bool, 64)
	}
	for gi := 0; gi < nGroups; gi++ {
		base := Addr(inner.U32())
		nSlots := int(inner.U32())
		kind := core.SlotKind(inner.U32())
		nSpans := int(inner.U32())

		// An adequate memory area is allocated on the destination
		// node (paper step 3) — at the same virtual addresses. The
		// iso-address discipline guarantees this cannot collide.
		if err := n.slots.Install(layout.SlotIndex(base), nSlots); err != nil {
			return installed, fmt.Errorf("pm2: iso-address collision installing %#08x on node %d: %v", base, n.id, err)
		}

		// First-touch accounting is per page, not per span: the kernel
		// clears a freshly installed page once, when the first span
		// lands on it. Later spans of the same group that fall into an
		// already-touched page pay only the copy — charging their bytes
		// zero-fill again would double-charge the page's first touch.
		// The page set is per group (scratch map, cleared here), as it
		// always was.
		clear(n.touchScratch)
		n.spanScratch = n.spanScratch[:0]
		for si := 0; si < nSpans; si++ {
			off := inner.U32()
			data := inner.BytesSection()
			if inner.Err() != nil {
				return installed, errCorruptMigration
			}
			if err := n.space.Write(base+Addr(off), data); err != nil {
				return installed, err
			}
			if zeroCopy {
				n.actor.Charge(model.DmaSetup(1))
			} else {
				n.actor.Charge(model.Memcpy(len(data)))
			}
			if fresh := freshPageBytes(n.touchScratch, base+Addr(off), base+Addr(off)+Addr(len(data))); fresh > 0 {
				n.actor.Charge(model.ZeroFill(fresh)) // first touch of fresh pages
			}
			installed += len(data)
			n.spanScratch = append(n.spanScratch, core.Span{Off: off, Len: uint32(len(data))})
		}
		if mode == PackUsed && kind == core.KindData {
			if err := core.RebuildFreeList(n.space, base, n.spanScratch); err != nil {
				return installed, err
			}
		}
	}
	return installed, nil
}

// onMigrateMsg is the destination half.
func (n *Node) onMigrateMsg(src int, msg *madeleine.Buffer) {
	inner := madeleine.FromBytes(msg.BytesSection())

	desc := inner.U32()
	start := simtime.Time(inner.U64())
	mode := PackMode(inner.U32())
	nGroups := int(inner.U32())

	installed, err := n.installGroups(inner, mode, nGroups, false)
	if err != nil {
		panic(err)
	}
	if inner.Err() != nil {
		panic(errCorruptMigration)
	}

	// Thread execution is resumed (paper step 3): thaw from memory only.
	if _, err := n.sched.Thaw(desc); err != nil {
		panic(fmt.Sprintf("pm2: thawing migrated thread on node %d: %v", n.id, err))
	}
	n.kick()

	lat := n.actor.Now() - start
	n.actor.Commit(func() {
		n.c.stats.Migrations++
		n.c.stats.MigratedBytes += uint64(installed)
		n.c.stats.MigrationLatencies = append(n.c.stats.MigrationLatencies, lat)
	})
}
