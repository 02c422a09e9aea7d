package core

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/vmem"
)

// CheckArena validates every block-layer invariant of the thread whose
// slot-list head pointer lives at headAddr:
//
//   - the slot list is a well-formed doubly-linked list;
//   - the physical blocks of each data group tile its data area exactly;
//   - no two physically adjacent blocks are both free (coalescing holds);
//   - each free block has a correct footer and prev-free flags are accurate;
//   - the free list contains exactly the physically free blocks;
//   - the header's Used equals the sum of live block sizes.
//
// It is used by unit tests, property tests, and the cluster stress tests
// after every migration.
func CheckArena(sp *vmem.Space, headAddr Addr) error {
	head, err := sp.Load32(headAddr)
	if err != nil {
		return err
	}
	prev := Addr(0)
	seen := 0
	for at := head; at != 0; {
		h, err := readSlotHeader(sp, at)
		if err != nil {
			return err
		}
		if h.Prev != prev {
			return fmt.Errorf("core: group %#08x has prev %#08x, want %#08x", at, h.Prev, prev)
		}
		if h.Kind == KindData {
			if err := checkGroupBlocks(sp, &h); err != nil {
				return err
			}
		}
		prev = at
		at = h.Next
		if seen++; seen > 1<<20 {
			return fmt.Errorf("core: slot list cycle")
		}
	}
	return nil
}

func checkGroupBlocks(sp *vmem.Space, h *SlotHeader) error {
	end := h.End()
	var usedSum uint32
	physFree := map[Addr]uint32{} // addr → size
	prevWasFree := false
	var prevSize uint32
	for at := h.DataStart(); at < end; {
		b, err := readBlock(sp, at)
		if err != nil {
			return err
		}
		if b.size < MinBlock || b.size%8 != 0 || at+Addr(b.size) > end {
			return fmt.Errorf("core: group %#08x: corrupt block %#08x size %d", h.Base, at, b.size)
		}
		if b.prevIsFree() != prevWasFree {
			return fmt.Errorf("core: group %#08x: block %#08x prev-free flag %v, want %v",
				h.Base, at, b.prevIsFree(), prevWasFree)
		}
		if prevWasFree {
			foot, err := sp.Load32(at - 4)
			if err != nil {
				return err
			}
			if foot != prevSize {
				return fmt.Errorf("core: group %#08x: footer before %#08x is %d, want %d", h.Base, at, foot, prevSize)
			}
		}
		if b.isFree() {
			if prevWasFree {
				return fmt.Errorf("core: group %#08x: adjacent free blocks at %#08x", h.Base, at)
			}
			physFree[at] = b.size
			prevWasFree = true
		} else {
			usedSum += b.size
			prevWasFree = false
		}
		prevSize = b.size
		at += Addr(b.size)
	}
	if usedSum != h.Used {
		return fmt.Errorf("core: group %#08x: Used=%d but live blocks sum to %d", h.Base, h.Used, usedSum)
	}
	// Free list must match the physical free set exactly.
	onList := map[Addr]bool{}
	prevLink := Addr(0)
	for at := h.FreeHead; at != 0; {
		if onList[at] {
			return fmt.Errorf("core: group %#08x: free list cycle at %#08x", h.Base, at)
		}
		onList[at] = true
		b, err := readBlock(sp, at)
		if err != nil {
			return err
		}
		if !b.isFree() {
			return fmt.Errorf("core: group %#08x: live block %#08x on free list", h.Base, at)
		}
		if _, ok := physFree[at]; !ok {
			return fmt.Errorf("core: group %#08x: free-list block %#08x not found physically", h.Base, at)
		}
		if b.prevFree != prevLink {
			return fmt.Errorf("core: group %#08x: block %#08x prevFree=%#08x, want %#08x", h.Base, at, b.prevFree, prevLink)
		}
		prevLink = at
		at = b.nextFree
	}
	if len(onList) != len(physFree) {
		return fmt.Errorf("core: group %#08x: %d blocks on free list, %d physically free",
			h.Base, len(onList), len(physFree))
	}
	return nil
}

// CheckCache validates the mmapped free-slot cache: every cached slot
// is owned and free, still mapped, and holds no host page.
func (ns *NodeSlots) CheckCache() error {
	for _, idx := range ns.cacheOrder {
		base := layout.SlotBase(idx)
		switch {
		case !ns.bm.Test(idx):
			return fmt.Errorf("core: cached slot %d is not owned and free", idx)
		case !ns.space.IsMapped(base, layout.SlotSize):
			return fmt.Errorf("core: cached slot %d is not mapped", idx)
		case ns.space.BackedPages(base, layout.SlotSize) != 0:
			return fmt.Errorf("core: cached slot %d holds %d host pages", idx, ns.space.BackedPages(base, layout.SlotSize))
		}
	}
	return nil
}
