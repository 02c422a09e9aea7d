package perf

import (
	"time"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/madeleine"
	ipm2 "repro/internal/pm2"
)

// Probes time single public calls of one layer, outside any workload, so
// a layer-local change shows up even when the workloads dilute it. Each
// returns nanoseconds per unit of work.

// probeVM runs the worker program alone on a one-node cluster and returns
// host nanoseconds per interpreted instruction.
func probeVM(instrs int) float64 {
	// The worker loop executes about 13.2 instructions per iteration.
	iters := uint32(float64(instrs) / 13.2)
	cl := ipm2.New(ipm2.Config{Nodes: 1}, newImage())
	cl.Spawn(0, "worker", iters)
	start := time.Now()
	cl.Run(0)
	elapsed := time.Since(start)
	_, _, _, _, n := cl.Node(0).Scheduler().Stats()
	if n == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}

// probePack times the Madeleine pack/unpack round trip of a 16 KB span —
// pooled Get, PackBytes, BytesSection, Put, then the same with the
// borrowed-section PackBytesRef — and returns nanoseconds per byte packed.
func probePack(rounds int) float64 {
	span := make([]byte, 16*1024)
	for i := range span {
		span[i] = byte(i)
	}
	pool := madeleine.NewPool()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		b := pool.Get()
		b.PackBytes(span)
		if len(madeleine.FromBytes(b.Bytes()).BytesSection()) != len(span) {
			panic("perf: pack probe lost bytes")
		}
		pool.Put(b)
		b = pool.Get()
		b.PackBytesRef(span)
		if len(madeleine.FromBytes(b.Bytes()).BytesSection()) != len(span) {
			panic("perf: pack probe lost bytes")
		}
		pool.Put(b)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(2*rounds*len(span))
}

// probeBitmapOr times OrBytes of a full slot map (7 KB, every bit set)
// into an empty one and returns nanoseconds per 64-bit word.
func probeBitmapOr(rounds int) float64 {
	full := bitmap.New(layout.SlotCount)
	full.SetRun(0, layout.SlotCount)
	data := full.Bytes()
	dst := bitmap.New(layout.SlotCount)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := dst.OrBytes(data); err != nil {
			panic(err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*dst.Words())
}
