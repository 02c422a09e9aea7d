package vmem

import (
	"bytes"
	"testing"

	"repro/internal/layout"
)

// TestDiscardKeepsMapping: Discard leaves a written slot mapped and
// reading zeros, with no host page behind it, and validates its range
// the way Munmap does.
func TestDiscardKeepsMapping(t *testing.T) {
	s := NewSpaceOn(NewPages(4))
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(base+layout.PageSize-2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := s.BackedPages(base, layout.SlotSize); got != 2 {
		t.Fatalf("%d backed pages after a page-crossing write, want 2", got)
	}
	if err := s.Discard(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if !s.IsMapped(base, layout.SlotSize) || s.MappedPages() != layout.PagesPerSlot {
		t.Fatalf("Discard unmapped the slot (%d pages mapped)", s.MappedPages())
	}
	if got := s.BackedPages(base, layout.SlotSize); got != 0 {
		t.Fatalf("%d backed pages after Discard, want 0", got)
	}
	got, err := s.ReadBytes(base, layout.SlotSize)
	if err != nil || !bytes.Equal(got, make([]byte, layout.SlotSize)) {
		t.Fatalf("a discarded slot does not read as zeros (%v)", err)
	}
	for _, c := range []struct {
		addr Addr
		n    int
		why  string
	}{
		{base + 1, layout.PageSize, "misaligned discard of 4096 bytes"},
		{base + layout.SlotSize - layout.PageSize, 2 * layout.PageSize, "page not mapped"},
	} {
		err := s.Discard(c.addr, c.n)
		if f, ok := err.(*Fault); !ok || f.Op != OpDiscard || f.Why != c.why {
			t.Fatalf("Discard(%#x, %d) = %v, want a discard fault %q", c.addr, c.n, err, c.why)
		}
	}
}

// TestDiscardFlushesThreadTLB: a thread TLB synced before a Discard
// misses after it and reads zeros, and a store through it backs the
// page anew instead of writing into the discarded page.
func TestDiscardFlushesThreadTLB(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	var tlb TLB
	tlb.Sync(s)
	if err := tlb.Store32(base+8, 0xCAFEF00D); err != nil {
		t.Fatal(err)
	}
	if v, err := tlb.Load32(base + 8); err != nil || v != 0xCAFEF00D || tlb.Entries() != 1 {
		t.Fatalf("Load32 = %#x, %v with %d entries; want the stored word from the TLB", v, err, tlb.Entries())
	}
	old, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discard(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	tlb.Sync(s)
	misses := tlb.Misses()
	if v, err := tlb.Load32(base + 8); err != nil || v != 0 {
		t.Fatalf("Load32 after Discard = %#x, %v, want 0", v, err)
	}
	if tlb.Misses() != misses+1 {
		t.Fatalf("the load after Discard missed %d times, want 1", tlb.Misses()-misses)
	}
	if err := tlb.Store32(base+8, 7); err != nil {
		t.Fatal(err)
	}
	now, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if &now[0][0] == &old[0][0] {
		t.Fatal("a store after Discard wrote into the discarded page")
	}
}

// TestPagesBound: Spaces sharing one list return every page they
// release to it, but it never holds more than its bound, and the pages
// it holds back the next writes without allocating.
func TestPagesBound(t *testing.T) {
	const bound = 3
	p := NewPages(bound)
	a, b := NewSpaceOn(p), NewSpaceOn(p)
	base := Addr(layout.IsoBase)
	for round := 0; round < 4; round++ {
		for _, s := range []*Space{a, b} {
			if err := s.Mmap(base, layout.SlotSize); err != nil {
				t.Fatal(err)
			}
			for pi := 0; pi < 5; pi++ {
				if err := s.Store8(base+Addr(pi*layout.PageSize), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Munmap(base, layout.SlotSize); err != nil {
				t.Fatal(err)
			}
			want := bound
			if Poison {
				want = 0
			}
			if p.Len() != want {
				t.Fatalf("round %d: the list holds %d pages, want %d", round, p.Len(), want)
			}
		}
	}
	// Five pages per Mmap, three of them from the list from the second
	// Mmap on: 5 + 7×2 pages made, or all 40 in a poison build.
	want := uint64(5 + 7*2)
	if Poison {
		want = 40
	}
	if p.Made() != want {
		t.Fatalf("%d pages made, want %d", p.Made(), want)
	}
}

// TestRecycledPageZeroOutsideWrite: a partial write to a page that the
// list recycles reads its bytes where it wrote and zeros everywhere
// else, never the page's old contents.
func TestRecycledPageZeroOutsideWrite(t *testing.T) {
	p := NewPages(1)
	s := NewSpaceOn(p)
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, 2*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(base, bytes.Repeat([]byte{0xFF}, layout.PageSize)); err != nil {
		t.Fatal(err)
	}
	old, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Discard(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	// The second page takes the first one's page, 100 bytes from its
	// start.
	const at, n = 100, 10
	if err := s.Write(base+layout.PageSize+at, bytes.Repeat([]byte{7}, n)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAliases(base+layout.PageSize, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if recycled := &got[0][0] == &old[0][0]; recycled == Poison {
		t.Fatalf("the write recycled the discarded page: %v, want %v", recycled, !Poison)
	}
	want := make([]byte, layout.PageSize)
	copy(want[at:], bytes.Repeat([]byte{7}, n))
	if !bytes.Equal(got[0], want) {
		t.Fatal("a recycled page reads other bytes than its write and zeros")
	}
}
