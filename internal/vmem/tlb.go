package vmem

import (
	"encoding/binary"

	"repro/internal/layout"
)

// tlbEntry caches the host page behind page index tag-1. A zero tag is
// an empty entry, so the zero TLB is empty.
type tlbEntry struct {
	tag uint32
	pg  *page
}

// TLB is a direct-mapped software TLB in front of one Space's chunk map:
// the Space owns one for its own accessors, and every resident thread
// owns one for the interpreter. It holds only host-backed pages, never
// an untouched one, so the first write to a page still backs it and
// ReadAliases still hands out the shared zero page; Read and Write stay
// the only source of faults.
//
// A TLB must be synced to the Space it reads (Sync) before an access
// and again whenever the Space may have unmapped or discarded memory
// since: Munmap and Discard bump the Space's generation, and Sync
// flushes a TLB whose generation or Space differs. The zero value is an empty TLB synced
// to no Space.
type TLB struct {
	e   [tlbSize]tlbEntry
	sp  *Space
	gen uint64
	// misses counts lookups in the chunk map, which each fill an entry
	// when the page is backed. Only the miss path touches it.
	misses uint64
}

// Sync binds t to sp, flushing it if it was synced to another Space or
// to an older generation of sp.
func (t *TLB) Sync(sp *Space) {
	if t.sp != sp || t.gen != sp.gen {
		t.e = [tlbSize]tlbEntry{}
		t.sp, t.gen = sp, sp.gen
	}
}

// Reset empties t and unbinds it from its Space, so it keeps no page
// alive; the miss count survives.
func (t *TLB) Reset() {
	t.e = [tlbSize]tlbEntry{}
	t.sp = nil
}

// Entries returns the number of pages t holds.
func (t *TLB) Entries() int {
	n := 0
	for _, e := range t.e {
		if e.tag != 0 {
			n++
		}
	}
	return n
}

// Misses returns the number of accesses that missed t and looked the
// page up in the chunk map.
func (t *TLB) Misses() uint64 { return t.misses }

// Word is the hit path of Load32: the word at addr if its page is in t
// and the word does not cross the page end. It is small enough for the
// compiler to inline into the interpreter loop.
func (t *TLB) Word(addr Addr) (uint32, bool) {
	pi := uint32(addr) >> layout.PageShift
	e := &t.e[pi&(tlbSize-1)]
	in := uint32(addr) & (layout.PageSize - 1)
	if e.tag != pi+1 || in > layout.PageSize-4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(e.pg[in:]), true
}

// SetWord is the hit path of Store32: it stores v at addr and reports
// true if the word's page is in t and the word does not cross the page
// end; otherwise it stores nothing.
func (t *TLB) SetWord(addr Addr, v uint32) bool {
	pi := uint32(addr) >> layout.PageShift
	e := &t.e[pi&(tlbSize-1)]
	in := uint32(addr) & (layout.PageSize - 1)
	if e.tag != pi+1 || in > layout.PageSize-4 {
		return false
	}
	binary.LittleEndian.PutUint32(e.pg[in:], v)
	return true
}

// page returns the host page behind addr, from t or with one chunk-map
// lookup that fills t, or nil if the page is unmapped or untouched. An
// unmapped page has a nil host page too, so the miss path needs no
// look at the chunk's mapped bits.
func (t *TLB) page(addr Addr) *page {
	pi := pageIndex(addr)
	e := &t.e[pi&(tlbSize-1)]
	if e.tag == pi+1 {
		return e.pg
	}
	t.misses++
	c := t.sp.chunks[pi>>chunkShift]
	if c == nil {
		return nil
	}
	pg := c.pg[pi&(layout.PagesPerSlot-1)]
	if pg != nil {
		*e = tlbEntry{tag: pi + 1, pg: pg}
	}
	return pg
}

// Load32 reads a little-endian 32-bit word at addr from the Space t is
// synced to.
func (t *TLB) Load32(addr Addr) (uint32, error) {
	if in := int(addr) & (layout.PageSize - 1); in <= layout.PageSize-4 {
		if pg := t.page(addr); pg != nil {
			return binary.LittleEndian.Uint32(pg[in:]), nil
		}
	}
	var buf [4]byte
	if err := t.sp.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// Store32 writes a little-endian 32-bit word at addr into the Space t
// is synced to.
func (t *TLB) Store32(addr Addr, v uint32) error {
	if in := int(addr) & (layout.PageSize - 1); in <= layout.PageSize-4 {
		if pg := t.page(addr); pg != nil {
			binary.LittleEndian.PutUint32(pg[in:], v)
			return nil
		}
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return t.sp.Write(addr, buf[:])
}

// Load8 reads one byte at addr from the Space t is synced to.
func (t *TLB) Load8(addr Addr) (byte, error) {
	if pg := t.page(addr); pg != nil {
		return pg[int(addr)&(layout.PageSize-1)], nil
	}
	var buf [1]byte
	if err := t.sp.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Store8 writes one byte at addr into the Space t is synced to.
func (t *TLB) Store8(addr Addr, v byte) error {
	if pg := t.page(addr); pg != nil {
		pg[int(addr)&(layout.PageSize-1)] = v
		return nil
	}
	return t.sp.Write(addr, []byte{v})
}
