package madeleine

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzBufferRoundTrip drives the pack/unpack machinery with a fuzzer-chosen
// op sequence and checks three properties on every input:
//
//  1. Round trip: whatever mix of copying (PackU32/PackU64/PackBytes),
//     appended (PackBytesAppend) and borrowed (PackBytesRef/PackBytesVec)
//     sections is packed unpacks to the same values, whether the message
//     was materialized via Bytes() or gathered segment-by-segment the way
//     bip.SendV does.
//  2. Convoy framing: the same message wrapped as a convoy-framed body
//     (count word + length-prefixed records, the chConvoy shape) survives
//     the wrap/unwrap.
//  3. Underflow poisoning: unpacking past the end of a truncated message
//     sets ErrUnderflow, sticks, and yields zero values from then on.
//
// The fuzz input is an instruction tape: each op byte selects a pack call,
// subsequent bytes feed its operands.
func FuzzBufferRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 2}, uint8(3))
	f.Add([]byte{2, 8, 3, 16, 4, 32, 2, 0}, uint8(1))
	f.Add([]byte{4, 255, 4, 1, 0, 0}, uint8(0))
	f.Add([]byte{}, uint8(9))

	f.Fuzz(func(t *testing.T, tape []byte, cut uint8) {
		type field struct {
			kind byte // 0: u32, 1: u64, 2+: bytes section
			u    uint64
			b    []byte
		}
		next := func(i *int) byte {
			if *i >= len(tape) {
				return 0
			}
			v := tape[*i]
			*i++
			return v
		}
		// chunk derives a deterministic payload from the tape position.
		chunk := func(i *int) []byte {
			n := int(next(i)) % 64
			out := make([]byte, n)
			for j := range out {
				out[j] = byte(*i + j)
			}
			return out
		}

		var fields []field
		b := NewBuffer()
		for i := 0; i < len(tape) && len(fields) < 32; {
			switch op := next(&i) % 6; op {
			case 0:
				v := uint32(next(&i))<<8 | uint32(next(&i))
				b.PackU32(v)
				fields = append(fields, field{kind: 0, u: uint64(v)})
			case 1:
				v := uint64(next(&i))<<32 | uint64(next(&i))
				b.PackU64(v)
				fields = append(fields, field{kind: 1, u: v})
			case 2:
				p := chunk(&i)
				b.PackBytes(p)
				fields = append(fields, field{kind: 2, b: p})
			case 3:
				p := chunk(&i)
				b.PackBytesRef(p)
				fields = append(fields, field{kind: 2, b: p})
			case 4:
				// A span split into page-like fragments: one section
				// on the wire, several borrowed refs behind it.
				p := chunk(&i)
				mid := len(p) / 2
				b.PackBytesVec([][]byte{p[:mid], p[mid:]})
				fields = append(fields, field{kind: 2, b: p})
			case 5:
				p := chunk(&i)
				b.PackBytesAppend(func(dst []byte) []byte { return append(dst, p...) })
				fields = append(fields, field{kind: 2, b: p})
			}
		}

		// The segment view must concatenate to exactly the materialized
		// stream (bip.SendV gathers segments; Bytes() flattens).
		var gathered []byte
		for _, seg := range b.appendSegments(nil) {
			gathered = append(gathered, seg...)
		}
		wire := b.Bytes()
		if !bytes.Equal(gathered, wire) {
			t.Fatalf("segment gather (%d B) != materialized stream (%d B)", len(gathered), len(wire))
		}
		if b.Len() != len(wire) {
			t.Fatalf("Len() = %d, materialized %d", b.Len(), len(wire))
		}

		verify := func(in *Buffer) {
			for fi, fl := range fields {
				switch fl.kind {
				case 0:
					if got := in.U32(); got != uint32(fl.u) {
						t.Fatalf("field %d: U32 = %d, want %d (err %v)", fi, got, fl.u, in.Err())
					}
				case 1:
					if got := in.U64(); got != fl.u {
						t.Fatalf("field %d: U64 = %d, want %d (err %v)", fi, got, fl.u, in.Err())
					}
				default:
					if got := in.BytesSection(); !bytes.Equal(got, fl.b) {
						t.Fatalf("field %d: section = %v, want %v (err %v)", fi, got, fl.b, in.Err())
					}
				}
			}
			if in.Err() != nil {
				t.Fatalf("round trip poisoned: %v", in.Err())
			}
			if in.Remaining() != 0 {
				t.Fatalf("round trip left %d bytes", in.Remaining())
			}
		}
		verify(FromBytes(wire))

		// Convoy framing: k copies of the record as length-prefixed
		// sections behind a count word — the chMigrate/chConvoy shape.
		k := int(cut)%3 + 1
		frame := NewBuffer()
		frame.PackU32(uint32(k))
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				frame.PackBytesRef(wire)
			} else {
				frame.PackBytes(wire)
			}
		}
		in := FromBytes(frame.Bytes())
		if got := in.U32(); got != uint32(k) {
			t.Fatalf("convoy count = %d, want %d", got, k)
		}
		for i := 0; i < k; i++ {
			verify(FromBytes(in.BytesSection()))
		}

		// Underflow poisoning: truncate the wire stream and read past the
		// end. The first failing read poisons the buffer; every later
		// read returns zero values and the error sticks.
		if len(wire) > 0 {
			trunc := FromBytes(wire[:int(cut)%len(wire)])
			for trunc.Err() == nil {
				trunc.U64()
			}
			if trunc.Err() != ErrUnderflow {
				t.Fatalf("truncated unpack error = %v, want ErrUnderflow", trunc.Err())
			}
			if got := trunc.U32(); got != 0 {
				t.Fatalf("poisoned U32 = %d, want 0", got)
			}
			if got := trunc.BytesSection(); got != nil {
				t.Fatalf("poisoned BytesSection = %v, want nil", got)
			}
		}

		// A length prefix pointing past the end must also poison.
		bad := binary.LittleEndian.AppendUint32(nil, 1<<30)
		in = FromBytes(bad)
		if in.BytesSection() != nil || in.Err() != ErrUnderflow {
			t.Fatalf("oversized section not poisoned: err %v", in.Err())
		}
	})
}
