package pm2

import (
	"errors"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/marcel"
	"repro/internal/simtime"
)

// The thread image (paper §2 steps 1–3, §4.2): one format, written by
// packThreadImage, read by decode and applied by install, whether the
// thread migrates, rides a convoy, is evacuated or restored. The wire
// paths panic on an error, because a peer runtime built their input;
// RestoreCluster returns it (see DESIGN.md, "The migration data path").

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

// threadImage is one decoded packThreadImage record; the span payloads
// alias the decoded bytes. A node decodes into one it keeps, so decoding
// stops allocating once the slices have held the largest record seen.
type threadImage struct {
	desc   Addr
	start  simtime.Time
	mode   PackMode
	groups []imageGroup
	// spans and data are parallel, one entry per span of every group.
	spans []core.Span
	data  [][]byte
}

// imageGroup is one slot group of a threadImage; its spans are
// spans[first:end] of the image.
type imageGroup struct {
	base       Addr
	nSlots     int
	kind       core.SlotKind
	first, end int
}

var errImageTruncated = errors.New("image truncated")

// decode reads one record from in into im and validates all of it: pack
// mode, group count, slot-aligned bases in the iso-address area, slot
// counts, no slot claimed twice, slot kinds and spans inside their group.
// A non-nil claimed adds the restore's cross-image check: a group may
// claim no slot set there, and its slots are set. Nothing but im and
// claimed is mutated; bytes after the record are decodeAll's to check.
func (im *threadImage) decode(in *madeleine.Buffer, claimed *bitmap.Bitmap) error {
	im.desc = Addr(in.U32()) // Thaw validates the descriptor after the install
	im.start = simtime.Time(in.U64())
	im.mode = PackMode(in.U32())
	nGroups := int(in.U32())
	im.groups, im.spans, im.data = im.groups[:0], im.spans[:0], im.data[:0]
	switch {
	case in.Err() != nil:
		return errImageTruncated
	case im.mode != PackUsed && im.mode != PackWhole:
		return fmt.Errorf("bad pack mode %d", im.mode)
	case nGroups > layout.SlotCount:
		return fmt.Errorf("%d slot groups", nGroups)
	}
	for g := 0; g < nGroups; g++ {
		base := Addr(in.U32())
		nSlots := int(in.U32())
		kind := core.SlotKind(in.U32())
		nSpans := int(in.U32())
		if in.Err() != nil {
			return errImageTruncated
		}
		if !layout.InIsoArea(base) || !layout.SlotAligned(base) {
			return fmt.Errorf("group base %#08x is not a slot in the iso-address area", base)
		}
		first := layout.SlotIndex(base)
		if nSlots == 0 || first+nSlots > layout.SlotCount {
			return fmt.Errorf("group at %#08x spans %d slots", base, nSlots)
		}
		// A thread has few groups: a pairwise scan finds a slot claimed
		// twice within the record; claimed finds one across records.
		dup := claimed != nil && claimed.AnyInRun(first, nSlots)
		for _, o := range im.groups {
			s := layout.SlotIndex(o.base)
			dup = dup || first < s+o.nSlots && s < first+nSlots
		}
		if dup {
			return fmt.Errorf("group at %#08x claims a slot that is free or already claimed", base)
		}
		if claimed != nil {
			claimed.SetRun(first, nSlots)
		}
		if kind != core.KindStack && kind != core.KindData {
			return fmt.Errorf("group at %#08x has bad slot kind %d", base, kind)
		}
		size := nSlots * layout.SlotSize
		grp := imageGroup{base: base, nSlots: nSlots, kind: kind, first: len(im.spans)}
		for sp := 0; sp < nSpans; sp++ {
			off := in.U32()
			data := in.BytesSection()
			if in.Err() != nil {
				return errImageTruncated
			}
			if int(off)+len(data) > size {
				return fmt.Errorf("span [%d,+%d) outside the %d-byte group at %#08x", off, len(data), size, base)
			}
			im.spans = append(im.spans, core.Span{Off: off, Len: uint32(len(data))})
			im.data = append(im.data, data)
		}
		grp.end = len(im.spans)
		im.groups = append(im.groups, grp)
	}
	return nil
}

// decodeAll decodes img, which must hold exactly one record.
func (im *threadImage) decodeAll(img []byte, claimed *bitmap.Bitmap) error {
	in := madeleine.FromBytes(img)
	if err := im.decode(in, claimed); err != nil {
		return err
	}
	if in.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes", in.Remaining())
	}
	return nil
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

// install maps and fills every slot group of a decoded image at its
// iso-address (paper step 3), charging copy (or DMA-setup) and first
// touch, rebuilds the free lists of used-mode data groups, and returns
// the payload bytes installed. A failed install leaves the node half built.
// It drops im's payload aliases, so a node's scratch image does not keep
// the last message it received alive.
func (n *Node) install(im *threadImage, zeroCopy bool) (int, error) {
	defer clear(im.data)
	model := n.c.cfg.Model
	installed := 0
	if n.touchScratch == nil {
		n.touchScratch = make(map[Addr]bool)
	}
	for _, g := range im.groups {
		if err := n.slots.Install(layout.SlotIndex(g.base), g.nSlots); err != nil {
			return installed, fmt.Errorf("pm2: iso-address collision installing %#08x on node %d: %v", g.base, n.id, err)
		}

		// First-touch accounting is per page and per group (see
		// freshPageBytes).
		clear(n.touchScratch)
		for i := g.first; i < g.end; i++ {
			lo := g.base + Addr(im.spans[i].Off)
			data := im.data[i]
			if err := n.space.Write(lo, data); err != nil {
				return installed, err
			}
			if zeroCopy {
				n.actor.Charge(model.DmaSetup(1))
			} else {
				n.actor.Charge(model.Memcpy(len(data)))
			}
			if fresh := freshPageBytes(n.touchScratch, lo, lo+Addr(len(data))); fresh > 0 {
				n.actor.Charge(model.ZeroFill(fresh)) // first touch of fresh pages
			}
			installed += len(data)
		}
		if im.mode == PackUsed && g.kind == core.KindData {
			if err := core.RebuildFreeList(n.space, g.base, im.spans[g.first:g.end]); err != nil {
				return installed, err
			}
		}
	}
	return installed, nil
}

// installThread decodes img, which must hold exactly one record,
// installs it with the copying charges and thaws its thread from memory
// (paper step 3). It returns the thread and the payload bytes installed.
func (n *Node) installThread(img []byte) (*marcel.Thread, int, error) {
	if err := n.img.decodeAll(img, nil); err != nil {
		return nil, 0, err
	}
	installed, err := n.install(&n.img, false)
	if err != nil {
		return nil, installed, err
	}
	t, err := n.sched.Thaw(n.img.desc)
	return t, installed, err
}

// packConvoy appends the body of a convoy or evacuation message for the
// frozen, detached threads ts — k u32, then k packThreadImage records
// stamped start — and returns the groups to evict once it is sent.
func (n *Node) packConvoy(buf *madeleine.Buffer, ts []*marcel.Thread, start simtime.Time, zeroCopy bool) []core.SlotGroup {
	buf.PackU32(uint32(len(ts)))
	var groups []core.SlotGroup
	for _, t := range ts {
		groups = append(groups, n.packThreadImage(buf, t, start, zeroCopy)...)
	}
	return groups
}

// installConvoy decodes and installs every record of a packConvoy body in
// order, then thaws the threads in that order (paper step 3) and kicks
// the scheduler once. It returns each thread's latency from its record's
// start stamp, and the payload bytes installed. A peer runtime built the
// body, so a malformed body or a failed install panics.
func (n *Node) installConvoy(body []byte, zeroCopy bool) ([]simtime.Time, int) {
	in := madeleine.FromBytes(body)
	k := int(in.U32())
	// A record takes at least 20 bytes: that bounds k before allocating.
	descs := make([]Addr, 0, min(k, len(body)/20))
	lats := make([]simtime.Time, 0, cap(descs)) // the start stamps, until the thaw
	installed := 0
	for i := 0; i < k; i++ {
		if err := n.img.decode(in, nil); err != nil {
			panic(fmt.Sprintf("pm2: corrupt convoy on node %d, record %d: %v", n.id, i, err))
		}
		got, err := n.install(&n.img, zeroCopy)
		if err != nil {
			panic(err)
		}
		installed += got
		descs = append(descs, n.img.desc)
		lats = append(lats, n.img.start)
	}
	if k == 0 || in.Remaining() != 0 {
		panic(fmt.Sprintf("pm2: corrupt convoy on node %d: %d records, %d trailing bytes", n.id, k, in.Remaining()))
	}
	for i, desc := range descs {
		if _, err := n.sched.Thaw(desc); err != nil {
			panic(fmt.Sprintf("pm2: thawing convoy thread on node %d: %v", n.id, err))
		}
		lats[i] = n.actor.Now() - lats[i]
	}
	n.kick()
	return lats, installed
}
