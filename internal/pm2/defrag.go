package pm2

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
)

// Global defragmentation (paper §4.4): "Notice also that the manipulation
// of the bitmaps on the local node may be completely arbitrary. ... It is
// also possible to completely restructure the slot distribution at the
// system level, for instance by grouping contiguous free slots as much as
// possible on the various nodes."
//
// Protocol, race-free by ownership transfer:
//
//  1. the coordinator takes the arbiter's whole slot space (the
//     system-wide section, or every shard; see lockEach);
//  2. it gathers every node's bitmap with surrender semantics — the reply
//     hands over all the node's free slots, leaving it with none (a node
//     that needs a slot meanwhile falls into the negotiation path, which
//     waits on the same locks until the defragmentation completes);
//  3. core.PlanDefrag splits the pooled free slots into per-node
//     contiguous ranges sized by what each node surrendered;
//  4. the new bitmaps are scattered and installed;
//  5. the locks are released.

// Service channels for defragmentation.
const (
	chSurrender uint32 = 8 // call: return bitmap and give up all free slots
	chInstall   uint32 = 9 // call: install a replacement bitmap
)

// Defragment triggers a global slot restructuring, coordinated by node
// coord. done (may be nil) runs on the coordinator when the protocol has
// completed, or gave up on a lock deadline (not counted in Stats).
func (c *Cluster) Defragment(coord int, done func()) {
	c.At(coord, func(n *Node) { n.defragment(done) })
}

// DefragmentSync runs Defragment and drives the engine until it ends.
func (c *Cluster) DefragmentSync(coord int) {
	fin := false
	c.Defragment(coord, func() { fin = true })
	for !fin && c.eng.Step() {
	}
	if !fin {
		panic("pm2: defragmentation never completed")
	}
}

func (n *Node) defragment(done func()) {
	if done == nil {
		done = func() {}
	}
	model := n.c.cfg.Model
	held := new([]int)
	n.lockEach(n.c.whole, held, func() {
		maps := make([]*bitmap.Bitmap, n.c.Nodes())
		maps[n.id] = n.slots.SurrenderAll()

		order := make([]int, 0, n.c.Nodes()-1)
		for i := 0; i < n.c.Nodes(); i++ {
			if i == n.id {
				continue
			}
			if !n.c.nodeAlive(i) {
				// A declared-dead rank surrendered everything at its
				// failover; it owns nothing and gets nothing back.
				maps[i] = bitmap.New(layout.SlotCount)
				continue
			}
			order = append(order, i)
		}
		var gather func(i int)
		gather = func(i int) {
			if i == len(order) {
				n.defragScatter(maps, held, done)
				return
			}
			peer := order[i]
			n.ep.Call(peer, chSurrender, nil, func(reply *madeleine.Buffer) {
				bm, err := bitmap.FromBytes(layout.SlotCount, reply.BytesSection())
				if err != nil {
					panic(fmt.Sprintf("pm2: bad surrendered bitmap from %d: %v", peer, err))
				}
				maps[peer] = bm
				n.actor.Charge(model.BitmapScan(layout.BitmapBytes))
				gather(i + 1)
			})
		}
		gather(0)
	}, done)
}

func (n *Node) defragScatter(maps []*bitmap.Bitmap, held *[]int, done func()) {
	model := n.c.cfg.Model
	n.actor.Charge(model.BitmapScan(layout.BitmapBytes * len(maps)))
	newMaps := core.PlanDefrag(maps)

	if err := n.slots.ReplaceBitmap(newMaps[n.id]); err != nil {
		panic(err)
	}
	order := make([]int, 0, n.c.Nodes()-1)
	for i := 0; i < n.c.Nodes(); i++ {
		if i != n.id && n.c.nodeAlive(i) {
			order = append(order, i)
		}
	}
	var scatter func(i int)
	scatter = func(i int) {
		if i == len(order) {
			n.unlockAll(held)
			n.c.stats.Defragmentations++
			done()
			return
		}
		peer := order[i]
		raw := newMaps[peer].Bytes()
		n.actor.Charge(model.Memcpy(len(raw)))
		n.ep.Call(peer, chInstall, func(b *madeleine.Buffer) {
			b.PackBytes(raw)
		}, func(*madeleine.Buffer) {
			scatter(i + 1)
		})
	}
	scatter(0)
}

// onSurrenderCall hands all free slots to a defrag coordinator.
func (n *Node) onSurrenderCall(src int, req *madeleine.Call) {
	given := n.slots.SurrenderAll()
	raw := given.Bytes()
	n.actor.Charge(n.c.cfg.Model.Memcpy(len(raw)))
	req.Reply(func(b *madeleine.Buffer) { b.PackBytes(raw) })
}

// onInstallCall installs a replacement bitmap from a defrag coordinator.
func (n *Node) onInstallCall(src int, req *madeleine.Call) {
	bm, err := bitmap.FromBytes(layout.SlotCount, req.Msg.BytesSection())
	if err != nil {
		panic(fmt.Sprintf("pm2: bad replacement bitmap: %v", err))
	}
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	if err := n.slots.ReplaceBitmap(bm); err != nil {
		panic(err)
	}
	// Threads that blocked on an empty bitmap can be retried now; they
	// are woken by their negotiation callbacks, which serialize behind
	// the same locks.
	req.Reply(nil)
}
