package pm2

import (
	"bytes"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// capturedImages returns the packThreadImage records a 2-node p4 run
// parks at its checkpoint, packed in the given mode, and fails the test
// unless they hold both a stack group and a data group.
func capturedImages(t testing.TB, mode PackMode) [][]byte {
	t.Helper()
	c := New(Config{Nodes: 2, Pack: mode}, progs.NewImage())
	c.Spawn(0, "p4", 1000)
	c.Engine().RunUntil(500 * simtime.Microsecond)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var imgs [][]byte
	kinds := map[core.SlotKind]bool{}
	var im threadImage
	for _, st := range ck.NodeStates {
		for _, th := range st.Threads {
			if err := im.decodeAll(th.Image, nil); err != nil {
				t.Fatalf("runtime-built image of thread %#x: %v", th.TID, err)
			}
			for _, g := range im.groups {
				kinds[g.kind] = true
			}
			imgs = append(imgs, th.Image)
		}
	}
	if !kinds[core.KindStack] || !kinds[core.KindData] {
		t.Fatalf("pack mode %v: captured images hold group kinds %v, want stack and data", mode, kinds)
	}
	return imgs
}

// encodeImage re-encodes a decoded record in packThreadImage's format.
func encodeImage(im *threadImage) []byte {
	buf := madeleine.NewBuffer()
	buf.PackU32(uint32(im.desc))
	buf.PackU64(uint64(im.start))
	buf.PackU32(uint32(im.mode))
	buf.PackU32(uint32(len(im.groups)))
	for _, g := range im.groups {
		buf.PackU32(g.base)
		buf.PackU32(uint32(g.nSlots))
		buf.PackU32(uint32(g.kind))
		buf.PackU32(uint32(g.end - g.first))
		for i := g.first; i < g.end; i++ {
			buf.PackU32(im.spans[i].Off)
			buf.PackBytes(im.data[i])
		}
	}
	return buf.Bytes()
}

// TestDecodeThreadImageAllocations pins the decode of a runtime-built
// record at zero host allocations once the node's scratch image has held
// a record that large.
func TestDecodeThreadImageAllocations(t *testing.T) {
	for _, mode := range []PackMode{PackUsed, PackWhole} {
		var im threadImage
		for _, img := range capturedImages(t, mode) {
			if err := im.decodeAll(img, nil); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := im.decodeAll(img, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("pack mode %v: %.1f allocations per decode, want 0", mode, allocs)
			}
		}
	}
}

// FuzzThreadImage: decoding arbitrary bytes never panics, decodes the
// same with and without a claimed bitmap, and a record that decodes
// re-encodes to exactly the bytes it came from.
func FuzzThreadImage(f *testing.F) {
	for _, mode := range []PackMode{PackUsed, PackWhole} {
		for _, img := range capturedImages(f, mode) {
			f.Add(img)
		}
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		var im, claimedIm threadImage
		err := im.decodeAll(img, nil)
		claimedErr := claimedIm.decodeAll(img, bitmap.New(layout.SlotCount))
		if (err == nil) != (claimedErr == nil) {
			t.Fatalf("decode without a claimed bitmap: %v; with one: %v", err, claimedErr)
		}
		if err != nil {
			return
		}
		if got := encodeImage(&im); !bytes.Equal(got, img) {
			t.Fatalf("re-encoded record differs:\n got %x\nwant %x", got, img)
		}
	})
}
