// Package bitmap implements the fixed-size bit vectors that PM2 nodes use to
// track ownership of iso-address slots (paper §4.2).
//
// Bit i set to 1 means "slot i is owned by this node and free". Bit 0 means
// the slot belongs to another node, or to some (local or remote) thread. The
// negotiation protocol of §4.4 combines the bitmaps of all nodes with a
// global OR and searches the result for runs of contiguous free slots.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-size bit vector. The zero value is unusable; create one
// with New or FromBytes.
type Bitmap struct {
	n     int // number of valid bits
	words []uint64
}

// New returns a Bitmap of n bits, all zero.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the map.
func (b *Bitmap) Len() int { return b.n }

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is 1.
func (b *Bitmap) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetRun sets bits [i, i+n) to 1.
func (b *Bitmap) SetRun(i, n int) {
	for k := i; k < i+n; k++ {
		b.Set(k)
	}
}

// ClearRun sets bits [i, i+n) to 0.
func (b *Bitmap) ClearRun(i, n int) {
	for k := i; k < i+n; k++ {
		b.Clear(k)
	}
}

// TestRun reports whether all bits in [i, i+n) are 1.
func (b *Bitmap) TestRun(i, n int) bool {
	for k := i; k < i+n; k++ {
		if !b.Test(k) {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// FirstSet returns the index of the lowest set bit at or after from, or -1.
func (b *Bitmap) FirstSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := from / wordBits
	w := b.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		i := from + bits.TrailingZeros64(w)
		if i < b.n {
			return i
		}
		return -1
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			i := wi*wordBits + bits.TrailingZeros64(b.words[wi])
			if i < b.n {
				return i
			}
			return -1
		}
	}
	return -1
}

// FindRun returns the index of the first run of n consecutive set bits
// (first-fit, as in the paper's slot search), or -1 if none exists.
func (b *Bitmap) FindRun(n int) int {
	return b.FindRunFrom(0, n)
}

// FindRunFrom is FindRun starting the search at bit from.
func (b *Bitmap) FindRunFrom(from, n int) int {
	if n <= 0 {
		panic("bitmap: FindRun with non-positive length")
	}
	i := from
	for {
		i = b.FirstSet(i)
		if i < 0 || i+n > b.n {
			return -1
		}
		// Extend the run as far as it goes.
		run := 1
		for run < n && b.Test(i+run) {
			run++
		}
		if run == n {
			return i
		}
		// The bit at i+run is clear; restart after it.
		i += run + 1
	}
}

// Words returns the number of 64-bit words backing the map.
func (b *Bitmap) Words() int { return len(b.words) }

// Word returns the i-th backing word. Together with SetWord it is the
// unit of the delta exchange: a dirty-word journal names changed words,
// and a delta payload carries their absolute values.
func (b *Bitmap) Word(i int) uint64 {
	if i < 0 || i >= len(b.words) {
		panic(fmt.Sprintf("bitmap: word %d out of range [0,%d)", i, len(b.words)))
	}
	return b.words[i]
}

// SetWord overwrites the i-th backing word. Bits beyond the map length
// are masked off, so a delta can never set a bit outside the map.
func (b *Bitmap) SetWord(i int, w uint64) {
	if i < 0 || i >= len(b.words) {
		panic(fmt.Sprintf("bitmap: word %d out of range [0,%d)", i, len(b.words)))
	}
	if tail := b.n - i*wordBits; tail < wordBits {
		w &= (1 << uint(tail)) - 1
	}
	b.words[i] = w
}

// Or sets b to the bitwise OR of b and other. The maps must have equal size.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: size mismatch in Or")
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot clears in b every bit set in other.
func (b *Bitmap) AndNot(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: size mismatch in AndNot")
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// Intersects reports whether b and other have any common set bit.
func (b *Bitmap) Intersects(other *Bitmap) bool {
	if b.n != other.n {
		panic("bitmap: size mismatch in Intersects")
	}
	for i := range b.words {
		if b.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether b and other hold the same bits.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Bytes serializes the bitmap into a little-endian byte slice of
// ceil(n/8) bytes, as shipped over the wire during negotiation.
func (b *Bitmap) Bytes() []byte {
	out := make([]byte, (b.n+7)/8)
	for i := range out {
		out[i] = byte(b.words[i/8] >> (uint(i%8) * 8))
	}
	return out
}

// OrBytes merges the serialization produced by Bytes into b without
// allocating an intermediate Bitmap — the combining step of a tree
// gather, where interior nodes fold each child's map into their own. It
// returns an error if the payload is the wrong length for b.
func (b *Bitmap) OrBytes(data []byte) error {
	want := (b.n + 7) / 8
	if len(data) != want {
		return fmt.Errorf("bitmap: payload is %d bytes, want %d for %d bits", len(data), want, b.n)
	}
	for i, by := range data {
		b.words[i/8] |= uint64(by) << (uint(i%8) * 8)
	}
	return nil
}

// FromBytes reconstructs an n-bit bitmap from the serialization produced by
// Bytes. It returns an error if the payload is the wrong length.
func FromBytes(n int, data []byte) (*Bitmap, error) {
	want := (n + 7) / 8
	if len(data) != want {
		return nil, fmt.Errorf("bitmap: payload is %d bytes, want %d for %d bits", len(data), want, n)
	}
	b := New(n)
	for i, by := range data {
		b.words[i/8] |= uint64(by) << (uint(i%8) * 8)
	}
	return b, nil
}

// String renders small bitmaps as 0/1 runs for debugging; large maps are
// summarized.
func (b *Bitmap) String() string {
	if b.n <= 128 {
		out := make([]byte, b.n)
		for i := 0; i < b.n; i++ {
			if b.Test(i) {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
		}
		return string(out)
	}
	return fmt.Sprintf("Bitmap(%d bits, %d set)", b.n, b.Count())
}
