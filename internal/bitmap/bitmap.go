// Package bitmap implements the fixed-size bit vectors that PM2 nodes use to
// track ownership of iso-address slots (paper §4.2).
//
// Bit i set to 1 means "slot i is owned by this node and free". Bit 0 means
// the slot belongs to another node, or to some (local or remote) thread. The
// negotiation protocol of §4.4 combines the bitmaps of all nodes with a
// global OR and searches the result for runs of contiguous free slots.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

// SetRun sets bits [i, i+n) to 1, a word at a time under edge masks.
// Like Set it panics when the run reaches outside the map; an empty run
// (n <= 0) sets nothing.
func (b *Bitmap) SetRun(i, n int) {
	if n <= 0 {
		return
	}
	b.check(i)
	b.check(i + n - 1)
	first, last := i/wordBits, (i+n-1)/wordBits
	lo := ^uint64(0) << (uint(i) % wordBits)
	hi := ^uint64(0) >> (wordBits - 1 - uint(i+n-1)%wordBits)
	if first == last {
		b.words[first] |= lo & hi
		return
	}
	b.words[first] |= lo
	for w := first + 1; w < last; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[last] |= hi
}

// SetEvery sets bits first, first+stride, first+2·stride, … below Len, a
// word at a time when the stride fits in a word: every word then ORs in
// the stride's one-word pattern (bits 0, stride, 2·stride, …) shifted to
// its first such bit, and that offset steps back by 64 mod stride from
// one word to the next.
func (b *Bitmap) SetEvery(first, stride int) {
	if first < 0 || stride <= 0 {
		panic(fmt.Sprintf("bitmap: SetEvery(%d, %d)", first, stride))
	}
	if first >= b.n {
		return
	}
	if stride > wordBits {
		for i := first; i < b.n; i += stride {
			b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
		}
		return
	}
	var pat uint64
	for k := 0; k < wordBits; k += stride {
		pat |= 1 << uint(k)
	}
	w, off := first/wordBits, first%wordBits
	b.words[w] |= pat << uint(off)
	off %= stride
	step := wordBits % stride
	for w++; w < len(b.words); w++ {
		if off -= step; off < 0 {
			off += stride
		}
		b.words[w] |= pat << uint(off)
	}
	if tail := b.n % wordBits; tail != 0 {
		b.words[len(b.words)-1] &= 1<<uint(tail) - 1
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

// AnyInRun reports whether any bit in [i, i+n) is 1. It tests whole
// words under edge masks, so checking a short run costs one or two word
// loads instead of a run-sized mask. Like Test it panics when the run
// reaches outside the map; an empty run (n <= 0) holds no set bit.
func (b *Bitmap) AnyInRun(i, n int) bool {
	if n <= 0 {
		return false
	}
	b.check(i)
	b.check(i + n - 1)
	first, last := i/wordBits, (i+n-1)/wordBits
	lo := ^uint64(0) << (uint(i) % wordBits)
	hi := ^uint64(0) >> (wordBits - 1 - uint(i+n-1)%wordBits)
	if first == last {
		return b.words[first]&lo&hi != 0
	}
	if b.words[first]&lo != 0 || b.words[last]&hi != 0 {
		return true
	}
	for _, w := range b.words[first+1 : last] {
		if w != 0 {
			return true
		}
	}
	return false
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
	if uint(i) >= uint(len(b.words)) {
		b.wordOutOfRange(i)
	}
	return b.words[i]
}

// SetWord overwrites the i-th backing word. Bits beyond the map length
// are masked off, so a delta can never set a bit outside the map.
func (b *Bitmap) SetWord(i int, w uint64) {
	if uint(i) >= uint(len(b.words)) {
		b.wordOutOfRange(i)
	}
	if tail := b.n - i*wordBits; tail < wordBits {
		w &= (1 << uint(tail)) - 1
	}
	b.words[i] = w
}

// wordOutOfRange is kept out of line so Word and SetWord stay inlinable
// on the per-peer loops of the delta gather.
//
//go:noinline
func (b *Bitmap) wordOutOfRange(i int) {
	panic(fmt.Sprintf("bitmap: word %d out of range [0,%d)", i, len(b.words)))
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

// CopyFrom overwrites b with the bits of other, reusing b's backing
// words. The maps must have equal size.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: size mismatch in CopyFrom")
	}
	copy(b.words, other.words)
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
	return b.AppendBytes(make([]byte, 0, (b.n+7)/8))
}

// AppendBytes appends the Bytes serialization to dst and returns the
// extended slice; a caller that reuses dst serializes without
// allocating. Whole words are stored eight bytes at a time.
func (b *Bitmap) AppendBytes(dst []byte) []byte {
	size := (b.n + 7) / 8
	dst = slices.Grow(dst, size)
	out := dst[len(dst) : len(dst)+size]
	full := size / 8
	for i, w := range b.words[:full] {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	for i := full * 8; i < size; i++ {
		out[i] = byte(b.words[full] >> (uint(i%8) * 8))
	}
	return dst[:len(dst)+size]
}

// checkPayload validates a Bytes serialization of an n-bit map: it must
// be exactly ceil(n/8) bytes and set no padding bit at or beyond n.
func checkPayload(n int, data []byte) error {
	want := (n + 7) / 8
	if len(data) != want {
		return fmt.Errorf("bitmap: payload is %d bytes, want %d for %d bits", len(data), want, n)
	}
	if r := n % 8; r != 0 && data[want-1]>>uint(r) != 0 {
		return fmt.Errorf("bitmap: payload sets padding bits beyond bit %d", n)
	}
	return nil
}

// wordAt decodes backing word i of a validated payload.
func wordAt(data []byte, i int) uint64 {
	if off := i * 8; off+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[off:])
	}
	var w uint64
	for k, by := range data[i*8:] {
		w |= uint64(by) << (uint(k) * 8)
	}
	return w
}

// OrBytes merges the serialization produced by Bytes into b without
// allocating an intermediate Bitmap — the combining step of a tree
// gather, where interior nodes fold each child's map into their own. It
// returns an error, leaving b untouched, if the payload is the wrong
// length for b or sets bits beyond its length.
func (b *Bitmap) OrBytes(data []byte) error {
	if err := checkPayload(b.n, data); err != nil {
		return err
	}
	for i := range b.words {
		b.words[i] |= wordAt(data, i)
	}
	return nil
}

// Load overwrites b with the serialization produced by Bytes. When
// changed is non-nil it is called, after the write, with the index of
// every word whose value the load altered — what a cached view needs to
// patch derived state instead of recomputing it. A rejected payload
// (wrong length, padding bits set) leaves b untouched.
func (b *Bitmap) Load(data []byte, changed func(word int)) error {
	if err := checkPayload(b.n, data); err != nil {
		return err
	}
	for i := range b.words {
		if w := wordAt(data, i); w != b.words[i] {
			b.words[i] = w
			if changed != nil {
				changed(i)
			}
		}
	}
	return nil
}

// EqualBytes reports whether the serialization produced by Bytes holds
// exactly the bits of b, comparing word by word without decoding into
// a map. It returns an error for a payload Load would reject.
func (b *Bitmap) EqualBytes(data []byte) (bool, error) {
	if err := checkPayload(b.n, data); err != nil {
		return false, err
	}
	for i, w := range b.words {
		if wordAt(data, i) != w {
			return false, nil
		}
	}
	return true, nil
}

// FromBytes reconstructs an n-bit bitmap from the serialization produced by
// Bytes. It returns an error if the payload is the wrong length or sets
// bits beyond n.
func FromBytes(n int, data []byte) (*Bitmap, error) {
	b := New(n)
	if err := b.Load(data, nil); err != nil {
		return nil, err
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
