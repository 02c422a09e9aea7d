package bip

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/simtime"
)

// pooledPair is a two-node network whose node 1 records every payload
// it is lent and releases none.
func pooledPair() (*simtime.Engine, *simtime.Actor, *NIC, *NIC, *[][]byte) {
	eng := simtime.NewEngine()
	nw := NewNetwork(eng, cost.Default(), 2)
	got := &[][]byte{}
	a0 := simtime.NewActor(eng, "n0")
	nic0 := nw.Attach(0, a0, func(int, uint32, []byte) {})
	nic1 := nw.Attach(1, simtime.NewActor(eng, "n1"), func(_ int, _ uint32, p []byte) {
		*got = append(*got, p)
	})
	return eng, a0, nic0, nic1, got
}

// TestBodiesAreRecycled: a released body carries the next message of its
// size class; a body too large to pool is left to the collector.
func TestBodiesAreRecycled(t *testing.T) {
	eng, a0, nic0, nic1, got := pooledPair()
	send := func(n int) []byte {
		payload := make([]byte, n)
		payload[n-1] = byte(n)
		a0.Post(eng.Now(), func() { nic0.Send(1, 0, payload) })
		eng.Run(0)
		p := (*got)[len(*got)-1]
		if len(p) != n || p[n-1] != byte(n) {
			t.Fatalf("a %d-byte message arrived as %d bytes", n, len(p))
		}
		return p
	}
	first := send(100)
	nic1.Release(first)
	if again := send(120); &again[0] != &first[0] {
		t.Fatal("a released 128-byte-class body was not reused")
	}
	if other := send(60); &other[0] == &first[0] {
		t.Fatal("a body in use was handed out again")
	}
	big := send(1<<maxBodyShift + 1)
	nic1.Release(big)
	if again := send(1<<maxBodyShift + 1); &again[0] == &big[0] {
		t.Fatal("a body above the largest class was pooled")
	}
}

// TestBitmapReplyIsPooled: a slot-bitmap reply — kind, request id and
// length words, then the map — fits the largest pooled class, so every
// negotiation message reuses its body.
func TestBitmapReplyIsPooled(t *testing.T) {
	if c := bodyClass(12 + layout.BitmapBytes); c != bodyClasses-1 {
		t.Fatalf("a bitmap reply falls in class %d, want the largest, %d", c, bodyClasses-1)
	}
}

// dropAll is a fault policy that loses every remote message.
type dropAll struct{}

func (dropAll) Adjust(_, _ int, _, arrive simtime.Time) (simtime.Time, bool) { return arrive, true }

// TestDroppedSendTakesNoBody: the fault policy is consulted before the
// gather, so a dropped message allocates neither a body nor a delivery
// record — even one too large to pool — while its link occupancy and
// the dropped counter stay as before.
func TestDroppedSendTakesNoBody(t *testing.T) {
	eng := simtime.NewEngine()
	m := cost.Default()
	nw := NewNetwork(eng, m, 2)
	nw.SetFaults(dropAll{})
	a0 := simtime.NewActor(eng, "n0")
	nic0 := nw.Attach(0, a0, func(int, uint32, []byte) {})
	nw.Attach(1, simtime.NewActor(eng, "n1"), func(int, uint32, []byte) { t.Error("a dropped message was delivered") })
	payload := make([]byte, 4<<maxBodyShift)
	send := func() { nic0.Send(1, 0, payload) }
	a0.Post(0, send)
	eng.Run(0)
	if want := m.Send(len(payload)) + m.WireTime(len(payload)); nic0.linkFreeAt != want {
		t.Fatalf("link free at %v after a dropped send, want %v", nic0.linkFreeAt, want)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		a0.Post(eng.Now(), send)
		eng.Run(0)
	}); allocs != 0 {
		t.Fatalf("a dropped send allocates %.1f objects, want 0", allocs)
	}
	if st := nw.Stats(); st.Dropped != 52 || st.Messages != 52 {
		t.Fatalf("stats %+v, want 52 sent and 52 dropped", st)
	}
}
