package core

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/vmem"
)

// TestHeaderCodecAllocations: slot and block headers are decoded and
// encoded through fixed-size stack buffers, so once the page backing
// them exists a read or a write allocates nothing on the host. Every
// isomalloc and free walks these headers.
func TestHeaderCodecAllocations(t *testing.T) {
	sp := vmem.NewSpace()
	base := layout.SlotBase(3)
	if err := sp.Mmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	h := SlotHeader{Base: base, Prev: 1 << 20, Next: 2 << 20, NSlots: 1, Kind: KindData, FreeHead: base + 64, Used: 48}
	blk := blockHeader{addr: base + SlotHeaderSize, size: 64, flags: flagFree, prevFree: 8, nextFree: 16}
	if err := h.write(sp); err != nil {
		t.Fatal(err)
	}
	if err := blk.write(sp); err != nil {
		t.Fatal(err)
	}
	if got, err := readSlotHeader(sp, base); err != nil || got != h {
		t.Fatalf("slot header round trip = %+v, %v; want %+v", got, err, h)
	}
	if got, err := readBlock(sp, blk.addr); err != nil || got != blk {
		t.Fatalf("block header round trip = %+v, %v; want %+v", got, err, blk)
	}
	for name, op := range map[string]func(){
		"readSlotHeader":    func() { _, _ = readSlotHeader(sp, base) },
		"SlotHeader.write":  func() { _ = h.write(sp) },
		"readBlock":         func() { _, _ = readBlock(sp, blk.addr) },
		"blockHeader.write": func() { _ = blk.write(sp) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, allocs)
		}
	}
}
