package pm2

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/marcel"
	"repro/internal/simtime"
)

// The relocation baseline (paper §2): the migration scheme of early PM2 and
// of systems like Ariadne, kept here for the comparison figures.
//
// The destination installs the migrated stack at a *different* address
// (whatever slot it has free), so every pointer into the stack must be
// patched: the compiler-generated frame-pointer chain (walked with
// "compiler knowledge") and the user pointers explicitly declared through
// pm2_register_pointer (Figure 3). Pointers that were never registered
// keep their old values and break (Figure 2). Isomalloc'd data is not
// supported by this policy — precisely the limitation that motivates the
// paper.

func (n *Node) relocMigrateOut(t *marcel.Thread, dest int) {
	ar := n.sched.Arena(t)
	groups, err := ar.Groups()
	if err != nil {
		panic(err)
	}
	if len(groups) != 1 || groups[0].Kind != core.KindStack {
		panic(fmt.Sprintf("pm2: relocation policy cannot migrate thread %#x with isomalloc data (%d groups) — this is the limitation the iso-address scheme removes", t.TID, len(groups)))
	}
	g := groups[0]
	h, err := core.ReadSlotHeader(n.space, g.Base)
	if err != nil {
		panic(err)
	}
	spans, err := core.UsedSpansStack(&h, marcel.DescSize, t.Regs.SP)
	if err != nil {
		panic(err)
	}

	start := n.actor.Now()
	buf := n.c.bufPool.Get()
	buf.PackU32(g.Base)
	buf.PackU64(uint64(start))
	// Registered pointers travel with the thread.
	regs := n.regPtrs[t.TID]
	buf.PackU32(uint32(len(regs)))
	for _, addr := range sortedRegAddrs(regs) {
		buf.PackU32(addr)
	}
	delete(n.regPtrs, t.TID)

	buf.PackU32(uint32(len(spans)))
	for _, s := range spans {
		frags, err := n.space.ReadAliases(g.Base+Addr(s.Off), int(s.Len))
		if err != nil {
			panic(err)
		}
		n.actor.Charge(n.c.cfg.Model.Memcpy(int(s.Len)))
		buf.PackU32(s.Off)
		// Copied, not borrowed: the slot is released before the send.
		buf.PackBytesAppend(func(dst []byte) []byte {
			for _, f := range frags {
				dst = append(dst, f...)
			}
			return dst
		})
	}

	// The old stack area returns to this node: under relocation there is
	// no cross-node address reservation to honour. Release both returns
	// ownership and unmaps (or caches) the memory.
	if err := n.slots.Release(layout.SlotIndex(g.Base), 1); err != nil {
		panic(err)
	}

	n.ep.SendBody(dest, chRelocMigrate, buf)
	n.c.bufPool.Put(buf)
}

// sortedRegAddrs returns the registered-pointer addresses in key order, for
// a deterministic wire format.
func sortedRegAddrs(m map[uint32]Addr) []Addr {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Addr, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// onRelocMigrateMsg installs a relocated thread: new slot, copied stack,
// then the post-migration pointer-update pass the iso-address scheme
// eliminates.
func (n *Node) onRelocMigrateMsg(src int, msg *madeleine.Buffer) {
	inner := madeleine.FromBytes(msg.BytesSection())
	model := n.c.cfg.Model

	oldBase := Addr(inner.U32())
	start := simtime.Time(inner.U64())
	nRegs := int(inner.U32())
	regAddrs := make([]Addr, nRegs)
	for i := range regAddrs {
		regAddrs[i] = inner.U32()
	}
	nSpans := int(inner.U32())

	// A fresh slot from this node's own pool: the new stack address.
	idx, err := n.slots.AcquireOne()
	if err != nil {
		panic(fmt.Sprintf("pm2: node %d out of slots for relocated thread", n.id))
	}
	newBase := layout.SlotBase(idx)
	delta := newBase - oldBase

	for si := 0; si < nSpans; si++ {
		off := inner.U32()
		data := inner.BytesSection()
		if inner.Err() != nil {
			panic("pm2: corrupt relocation message")
		}
		if err := n.space.Write(newBase+Addr(off), data); err != nil {
			panic(err)
		}
		n.actor.Charge(model.Memcpy(len(data)))
		n.actor.Charge(model.ZeroFill(len(data)))
	}

	oldLo, oldHi := oldBase, oldBase+layout.SlotSize
	inOld := func(v uint32) bool { return v >= oldLo && v < oldHi }
	reloc := func(v uint32) uint32 {
		if inOld(v) {
			return v + delta
		}
		return v
	}

	// Rewrite the slot header in place (prev/next are nil for a lone
	// stack slot; the base changed).
	hdr := core.SlotHeader{Base: newBase, NSlots: 1, Kind: core.KindStack}
	if err := hdr.Write(n.space); err != nil {
		panic(err)
	}

	// Patch the descriptor: SP, FP and the slot-list head all moved.
	desc := newBase + core.SlotHeaderSize
	for _, off := range []Addr{marcel.DescOffSP, marcel.DescOffFP, marcel.DescOffSlotHead} {
		v, err := n.space.Load32(desc + off)
		if err != nil {
			panic(err)
		}
		if err := n.space.Store32(desc+off, reloc(v)); err != nil {
			panic(err)
		}
		n.actor.Charge(cost.Fixed(model.PointerFixupNs))
	}

	// Walk and patch the frame-pointer chain ("implicit pointers
	// generated by the compiler in order to chain the stack frames").
	fp, err := n.space.Load32(desc + marcel.DescOffFP)
	if err != nil {
		panic(err)
	}
	for fp != 0 {
		saved, err := n.space.Load32(fp)
		if err != nil {
			panic(err)
		}
		if saved == 0 {
			break
		}
		if !inOld(saved) {
			panic(fmt.Sprintf("pm2: frame chain escaped the stack: %#08x", saved))
		}
		if err := n.space.Store32(fp, saved+delta); err != nil {
			panic(err)
		}
		n.actor.Charge(cost.Fixed(model.PointerFixupNs))
		fp = saved + delta
	}

	// Patch the registered user pointers (Figure 3). Each entry is the
	// address of a pointer variable; both the variable's location and
	// its value may need the delta.
	newRegs := make(map[uint32]Addr, len(regAddrs))
	for i, pa := range regAddrs {
		loc := reloc(pa)
		v, err := n.space.Load32(loc)
		if err != nil {
			panic(err)
		}
		if inOld(v) {
			if err := n.space.Store32(loc, v+delta); err != nil {
				panic(err)
			}
		}
		n.actor.Charge(cost.Fixed(model.PointerFixupNs))
		newRegs[uint32(i+1)] = loc
	}

	th, err := n.sched.Thaw(desc)
	if err != nil {
		panic(fmt.Sprintf("pm2: thawing relocated thread: %v", err))
	}
	if len(newRegs) > 0 {
		n.regPtrs[th.TID] = newRegs
	}
	n.kick()

	n.c.stats.Migrations++
	n.c.stats.MigrationLatencies = append(n.c.stats.MigrationLatencies, n.actor.Now()-start)
}
