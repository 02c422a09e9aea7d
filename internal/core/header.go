package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/layout"
	"repro/internal/vmem"
)

// All allocator metadata — slot headers chaining a thread's slots, block
// headers, free-list links — is stored in simulated memory as 32-bit words.
// The values are iso-addresses, so after migration a verbatim copy of the
// slot bytes reproduces the entire structure with no fixup (paper §4.2:
// "chaining is carried out by means of pointers stored in the slot headers
// ... an iso-address copy is enough").

// SlotKind distinguishes the two uses of thread-owned slots.
type SlotKind uint32

// Slot kinds.
const (
	// KindStack is a thread's stack slot: slot header, then the thread
	// descriptor, then the stack growing down from the slot end.
	KindStack SlotKind = 1
	// KindData is an isomalloc data slot (or merged run of slots)
	// carrying a block heap.
	KindData SlotKind = 2
)

// SlotMagic marks a valid slot header.
const SlotMagic = 0x51075107

// Slot header field offsets (bytes from the slot group base).
const (
	hdrMagic    = 0
	hdrPrev     = 4  // previous slot group header address (0 = head)
	hdrNext     = 8  // next slot group header address (0 = tail)
	hdrNSlots   = 12 // number of contiguous slots merged into this group
	hdrKind     = 16
	hdrFreeHead = 20 // first free block address (0 = none)
	hdrUsed     = 24 // bytes consumed by live blocks (headers included)

	// SlotHeaderSize is the reserved header area at the start of every
	// slot group.
	SlotHeaderSize = 32
)

// SlotHeader is the decoded in-memory header of a slot group.
type SlotHeader struct {
	Base     Addr
	Prev     Addr
	Next     Addr
	NSlots   uint32
	Kind     SlotKind
	FreeHead Addr
	Used     uint32
}

// DataStart returns the first usable byte of the group.
func (h *SlotHeader) DataStart() Addr { return h.Base + SlotHeaderSize }

// End returns the first address past the group.
func (h *SlotHeader) End() Addr { return h.Base + Addr(h.NSlots)*layout.SlotSize }

// ReadSlotHeader loads and validates the slot group header at base (the
// runtime uses it to pack migrating slot groups).
func ReadSlotHeader(sp *vmem.Space, base Addr) (SlotHeader, error) {
	return readSlotHeader(sp, base)
}

// readSlotHeader loads and validates the header at base.
func readSlotHeader(sp *vmem.Space, base Addr) (SlotHeader, error) {
	var h SlotHeader
	var buf [SlotHeaderSize]byte
	if err := sp.Read(base, buf[:]); err != nil {
		return h, err
	}
	w := func(off int) uint32 { return binary.LittleEndian.Uint32(buf[off:]) }
	if w(hdrMagic) != SlotMagic {
		return h, fmt.Errorf("core: bad slot magic %#x at %#08x", w(hdrMagic), base)
	}
	h.Base = base
	h.Prev = w(hdrPrev)
	h.Next = w(hdrNext)
	h.NSlots = w(hdrNSlots)
	h.Kind = SlotKind(w(hdrKind))
	h.FreeHead = w(hdrFreeHead)
	h.Used = w(hdrUsed)
	return h, nil
}

// Write stores the header to simulated memory (exported for the runtime's
// relocation baseline, which rebuilds headers at new addresses).
func (h *SlotHeader) Write(sp *vmem.Space) error { return h.write(sp) }

// write stores the header back to simulated memory.
func (h *SlotHeader) write(sp *vmem.Space) error {
	var buf [SlotHeaderSize]byte
	put := func(off int, v uint32) { binary.LittleEndian.PutUint32(buf[off:], v) }
	put(hdrMagic, SlotMagic)
	put(hdrPrev, h.Prev)
	put(hdrNext, h.Next)
	put(hdrNSlots, h.NSlots)
	put(hdrKind, uint32(h.Kind))
	put(hdrFreeHead, h.FreeHead)
	put(hdrUsed, h.Used)
	return sp.Write(h.Base, buf[:])
}

// Block header layout. Every block (free or live) starts with a 16-byte
// header; free blocks additionally carry a 4-byte footer (their size) in
// their last word so the physically-following block can find their start
// when coalescing backwards.
const (
	blkSize     = 0 // total block size in bytes, headers included
	blkFlags    = 4
	blkPrevFree = 8  // free-list link (free blocks only)
	blkNextFree = 12 // free-list link (free blocks only)

	// BlockHeaderSize is the per-block metadata overhead.
	BlockHeaderSize = 16
	// MinBlock is the smallest block: header + footer + 8-byte payload,
	// kept 8-aligned.
	MinBlock = 24

	flagFree     = 1 // this block is free
	flagPrevFree = 2 // the physically preceding block is free
)

type blockHeader struct {
	addr     Addr
	size     uint32
	flags    uint32
	prevFree Addr
	nextFree Addr
}

func (b *blockHeader) isFree() bool     { return b.flags&flagFree != 0 }
func (b *blockHeader) prevIsFree() bool { return b.flags&flagPrevFree != 0 }

// payload returns the user address of the block.
func (b *blockHeader) payload() Addr { return b.addr + BlockHeaderSize }

func readBlock(sp *vmem.Space, addr Addr) (blockHeader, error) {
	var b blockHeader
	var buf [BlockHeaderSize]byte
	if err := sp.Read(addr, buf[:]); err != nil {
		return b, err
	}
	w := func(off int) uint32 { return binary.LittleEndian.Uint32(buf[off:]) }
	b.addr = addr
	b.size = w(blkSize)
	b.flags = w(blkFlags)
	b.prevFree = w(blkPrevFree)
	b.nextFree = w(blkNextFree)
	return b, nil
}

func (b *blockHeader) write(sp *vmem.Space) error {
	var buf [BlockHeaderSize]byte
	put := func(off int, v uint32) { binary.LittleEndian.PutUint32(buf[off:], v) }
	put(blkSize, b.size)
	put(blkFlags, b.flags)
	put(blkPrevFree, b.prevFree)
	put(blkNextFree, b.nextFree)
	return sp.Write(b.addr, buf[:])
}

// writeFooter stores the free block's size in its last word.
func (b *blockHeader) writeFooter(sp *vmem.Space) error {
	return sp.Store32(b.addr+Addr(b.size)-4, b.size)
}

// align8 rounds n up to a multiple of 8.
func align8(n uint32) uint32 { return (n + 7) &^ 7 }

// blockTotal returns the total block size needed for a user request.
func blockTotal(size uint32) uint32 {
	t := BlockHeaderSize + align8(size)
	if t < MinBlock {
		t = MinBlock
	}
	return t
}

// groupDataBytes returns the usable bytes of an n-slot group.
func groupDataBytes(n int) uint32 {
	return uint32(n*layout.SlotSize) - SlotHeaderSize
}

// SlotsFor returns the number of contiguous slots needed for a user request
// of size bytes.
func SlotsFor(size uint32) int {
	total := uint64(blockTotal(size)) + SlotHeaderSize
	return int((total + layout.SlotSize - 1) / layout.SlotSize)
}

// MaxSingleSlotRequest is the largest user request that fits in one slot.
const MaxSingleSlotRequest = layout.SlotSize - SlotHeaderSize - BlockHeaderSize
