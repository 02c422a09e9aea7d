package madeleine

import "testing"

// BenchmarkPack measures packing a 16 KB span and materializing the
// message, in host ns per byte: copied in by PackBytes, and borrowed by
// PackBytesRef and spliced in by Bytes.
func BenchmarkPack(b *testing.B) {
	span := make([]byte, 16*1024)
	for i := range span {
		span[i] = byte(i)
	}
	for _, c := range []struct {
		name string
		pack func(*Buffer, []byte) *Buffer
	}{
		{"copy", (*Buffer).PackBytes},
		{"borrowed", (*Buffer).PackBytesRef},
	} {
		b.Run(c.name, func(b *testing.B) {
			pool := NewPool()
			for b.Loop() {
				buf := c.pack(pool.Get(), span)
				if len(buf.Bytes()) != 4+len(span) {
					b.Fatalf("packed %d bytes", len(buf.Bytes()))
				}
				pool.Put(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(span)), "ns/byte")
		})
	}
}
