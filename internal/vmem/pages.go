package vmem

// Pages is a bounded free list of host pages, shared by the Spaces of
// one cluster (NewSpaceOn). Munmap and Discard drop the pages they
// release into it, and Write takes a page from it before it allocates
// one, so a migration's install reuses the pages that the source's
// Evict just gave up, and a thread created in a cached slot reuses the
// pages its predecessor had. Pages beyond the bound are left to the Go
// collector, so the list itself holds at most bound × 4 KB of heap.
//
// Pages has no locking, for the reason Space has none: every Space of
// a cluster is touched only inside the events of its one-goroutine
// kernel.
//
// In a poison build (-tags poison) no page is pooled: a released page
// is filled with 0xA5 bytes and retired, so an alias (ReadAliases) or
// a TLB entry that outlives the release reads garbage instead of data
// that happens to survive in a pooled page.
type Pages struct {
	free []*page
	// made counts the pages Write had to allocate because the list was
	// empty.
	made uint64
}

// poisonByte fills every page a poison build releases.
const poisonByte = 0xA5

// NewPages returns an empty free list that keeps at most bound pages.
func NewPages(bound int) *Pages { return &Pages{free: make([]*page, 0, bound)} }

// Len returns the number of pages on the list.
func (p *Pages) Len() int { return len(p.free) }

// Made returns the number of host pages the list's Spaces allocated
// because it was empty.
func (p *Pages) Made() uint64 { return p.made }

// take returns a page for a Write that covers its bytes [lo, hi): a
// pooled one whose other bytes it zeroes, or a fresh one. A nil list
// always allocates.
func (p *Pages) take(lo, hi int) *page {
	if p == nil {
		return new(page)
	}
	n := len(p.free)
	if n == 0 {
		p.made++
		return new(page)
	}
	pg := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	clear(pg[:lo])
	clear(pg[hi:])
	return pg
}

// put takes back a page a Space released. A nil or full list drops it.
func (p *Pages) put(pg *page) {
	if Poison {
		for i := range pg {
			pg[i] = poisonByte
		}
		return
	}
	if p != nil && len(p.free) < cap(p.free) {
		p.free = append(p.free, pg)
	}
}
