package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// FailoverRow is one point of the failover measurement: k threads
// resident on the victim node at its crash instant, evacuated to the
// survivors once the lease expires.
type FailoverRow struct {
	K int
	// EvacLegacyMicros / EvacConvoyMicros is the evacuation makespan —
	// lease expiry (declaration) to the last evacuated thread thawed on
	// its survivor — under the paper-faithful copying charges versus the
	// zero-copy convoy pipeline (Config.Convoy).
	EvacLegacyMicros float64
	EvacConvoyMicros float64
	// ReclaimedSlots counts the dead rank's owned-free slots re-dealt to
	// the survivors; an exact protocol quantity, reported for context.
	ReclaimedSlots int
}

// FailoverReport is the gated side of the failover figure.
type FailoverReport struct {
	// DetectionMicros is the crash-to-declaration latency: the lease
	// period times Config.HeartbeatMisses, independent of k.
	DetectionMicros float64
	Points          []FailoverRow
}

// Rows states the failover figure's gates: the detection latency and
// both evacuation makespans are ceilings; the reclaimed slot count is
// an exact protocol quantity pinned by unit tests and rides along as
// context.
func (r FailoverReport) Rows() []Row {
	rows := []Row{{"failover", "detection", r.DetectionMicros, "us", Ceiling}}
	for _, f := range r.Points {
		k := fmt.Sprintf("k%d.", f.K)
		rows = append(rows,
			Row{"failover", k + "evac_legacy", f.EvacLegacyMicros, "us", Ceiling},
			Row{"failover", k + "evac_convoy", f.EvacConvoyMicros, "us", Ceiling},
			Row{"failover", k + "reclaimed_slots", float64(f.ReclaimedSlots), "slots", Info})
	}
	return rows
}

// failoverCrashMicros / failoverTickMicros shape every failover run: the
// victim crashes at 1 ms, heartbeats tick every 1 ms, so with the
// default 2-miss lease the declaration lands at 3 ms of virtual time.
const (
	failoverCrashMicros = 1_000
	failoverTickMicros  = 1_000
)

// Failover measures fail-stop recovery on a 4-node cluster: for each k
// it stages k long-running workers on node 1, crashes the node under
// them, drives the heartbeat rounds until the lease expires, and reports
// the evacuation makespan with the convoy pipeline off and on. Every
// worker must finish on a survivor — a lost thread panics the
// measurement rather than skewing it.
func Failover(ks []int) FailoverReport {
	var report FailoverReport
	for _, k := range ks {
		row := FailoverRow{K: k}
		for _, convoy := range []bool{false, true} {
			det, evac, reclaimed := failoverRun(k, convoy)
			if report.DetectionMicros == 0 {
				report.DetectionMicros = det
			} else if det != report.DetectionMicros {
				panic(fmt.Sprintf("bench: detection latency moved with k: %v vs %v µs", det, report.DetectionMicros))
			}
			if convoy {
				row.EvacConvoyMicros = evac
			} else {
				row.EvacLegacyMicros = evac
				row.ReclaimedSlots = reclaimed
			}
		}
		report.Points = append(report.Points, row)
	}
	return report
}

// failoverRun is one staged crash: k workers on the victim, lease-expiry
// detection via periodic heartbeat rounds, evacuation and reclaim.
// Returns the detection latency, the evacuation makespan (both µs) and
// the reclaimed slot count.
func failoverRun(k int, convoy bool) (detectionMicros, evacMicros float64, reclaimed int) {
	const victim = 1
	plan, err := fault.Parse(fmt.Sprintf("crash:%d@%d", victim, failoverCrashMicros))
	if err != nil {
		panic(fmt.Sprintf("bench: failover plan: %v", err))
	}
	c := pm2.New(pm2.Config{
		Nodes:  4,
		Dist:   core.Partition{}, // single-slot worker cells never negotiate
		Faults: plan,
		Convoy: convoy,
	}, progs.NewImage())
	for i := 0; i < k; i++ {
		c.Spawn(victim, "worker", 30_000)
	}
	// The heartbeat rounds a load balancer would drive: one engine tick
	// per millisecond, enough of them to outlive any batch size.
	for i := 1; i <= 64; i++ {
		c.Engine().At(simtime.Time(i*failoverTickMicros)*simtime.Microsecond, c.HeartbeatTick)
	}
	c.Run(0)
	st := c.Stats()
	if st.Evacuations != 1 || st.EvacuatedThreads != k {
		panic(fmt.Sprintf("bench: failover k=%d convoy=%v: %d evacuations, %d threads evacuated",
			k, convoy, st.Evacuations, st.EvacuatedThreads))
	}
	if len(st.DetectionLatencies) != 1 || len(st.EvacuationLatencies) != k {
		panic(fmt.Sprintf("bench: failover k=%d convoy=%v: %d detection, %d evacuation samples",
			k, convoy, len(st.DetectionLatencies), len(st.EvacuationLatencies)))
	}
	var makespan simtime.Time
	for _, l := range st.EvacuationLatencies {
		if l > makespan {
			makespan = l
		}
	}
	return st.DetectionLatencies[0].Micros(), makespan.Micros(), st.ReclaimedSlots
}
