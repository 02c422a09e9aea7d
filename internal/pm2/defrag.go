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
//
// With RPCTimeout set, both calls ride the deadline layer. A surrender
// that times out is planned without: the peer gets no install, and a
// late reply is installed back on it. An install that times out reads
// as acknowledged. A rank declared dead after it surrendered gets no
// install either; the coordinator keeps its share. What this still
// loses is listed in DESIGN.md ("Known hazards").

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

		// A rank that is not asked, or does not answer in time, is
		// planned with nothing and gets no install: a declared-dead rank
		// surrendered everything at its failover, a suspected one keeps
		// what it owns.
		none := bitmap.New(layout.SlotCount)
		order := make([]int, 0, n.c.Nodes()-1)
		for i := 0; i < n.c.Nodes(); i++ {
			if i == n.id {
				continue
			}
			maps[i] = none
			if n.c.nodeAlive(i) {
				order = append(order, i)
			}
		}
		var gave []int // the ranks that surrendered, in rank order
		var gather func(i int)
		gather = func(i int) {
			if i == len(order) {
				n.defragScatter(maps, gave, held, done)
				return
			}
			peer := order[i]
			n.exchange(call{kind: claimCall, dst: peer, ch: chSurrender, reply: func(reply *madeleine.Buffer) {
				maps[peer] = surrendered(peer, reply)
				gave = append(gave, peer)
				n.actor.Charge(model.BitmapScan(layout.BitmapBytes))
				gather(i + 1)
			}, timeout: func() { gather(i + 1) }, late: func(reply *madeleine.Buffer) {
				// The peer surrendered after the plan left it out:
				// hand its slots back.
				n.installMap(peer, surrendered(peer, reply), func() {})
			}})
		}
		gather(0)
	}, done)
}

// surrendered decodes the bitmap peer surrendered.
func surrendered(peer int, reply *madeleine.Buffer) *bitmap.Bitmap {
	bm, err := bitmap.FromBytes(layout.SlotCount, reply.BytesSection())
	if err != nil {
		panic(fmt.Sprintf("pm2: bad surrendered bitmap from %d: %v", peer, err))
	}
	return bm
}

// defragScatter plans the new distribution and installs it on every
// rank in gave. A rank declared dead since it surrendered gets no
// install: the coordinator keeps its share.
func (n *Node) defragScatter(maps []*bitmap.Bitmap, gave []int, held *[]int, done func()) {
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes * len(maps)))
	newMaps := core.PlanDefrag(maps)

	mine := newMaps[n.id]
	order := gave[:0]
	for _, peer := range gave {
		if n.c.NodeDown(peer) {
			mine.Or(newMaps[peer])
		} else {
			order = append(order, peer)
		}
	}
	n.adoptBitmap(mine)
	var scatter func(i int)
	scatter = func(i int) {
		if i == len(order) {
			n.unlockAll(held)
			n.c.stats.Defragmentations++
			done()
			return
		}
		n.installMap(order[i], newMaps[order[i]], func() { scatter(i + 1) })
	}
	scatter(0)
}

// installMap sends peer a bitmap of slots to own. done runs once the peer
// acknowledged or the call timed out: a timeout reads as acknowledged,
// as a give-back's does.
func (n *Node) installMap(peer int, bm *bitmap.Bitmap, done func()) {
	raw := bm.Bytes()
	n.actor.Charge(n.c.cfg.Model.Memcpy(len(raw)))
	n.exchange(call{kind: giveBackCall, dst: peer, ch: chInstall, build: func(b *madeleine.Buffer) {
		b.PackBytes(raw)
	}, reply: func(*madeleine.Buffer) { done() }, timeout: done})
}

// adoptBitmap makes bm, plus whatever this node came to own since it
// surrendered its free slots (a reclaimed share, say), its owned-free
// set.
func (n *Node) adoptBitmap(bm *bitmap.Bitmap) {
	bm.Or(n.slots.Bitmap())
	if err := n.slots.ReplaceBitmap(bm); err != nil {
		panic(err)
	}
}

// onSurrenderCall hands all free slots to a defrag coordinator.
func (n *Node) onSurrenderCall(src int, req *madeleine.Call) {
	given := n.slots.SurrenderAll()
	raw := given.Bytes()
	n.actor.Charge(n.c.cfg.Model.Memcpy(len(raw)))
	req.Reply(func(b *madeleine.Buffer) { b.PackBytes(raw) })
}

// onInstallCall adopts the slots a defrag coordinator installs.
func (n *Node) onInstallCall(src int, req *madeleine.Call) {
	bm, err := bitmap.FromBytes(layout.SlotCount, req.Msg.BytesSection())
	if err != nil {
		panic(fmt.Sprintf("pm2: bad replacement bitmap: %v", err))
	}
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	n.adoptBitmap(bm)
	// Threads that blocked on an empty bitmap can be retried now; they
	// are woken by their negotiation callbacks, which serialize behind
	// the same locks.
	req.Reply(nil)
}
