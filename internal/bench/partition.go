package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// PartitionRow is one point of the partial-failure measurement: k
// concurrent negotiations launched while one rank is partitioned away,
// each forced to abandon the unreachable peer at its RPC deadline and
// plan around its slots.
type PartitionRow struct {
	K int
	// RPCTimeouts counts the deadline expiries the k negotiations (and
	// any ambient protocol traffic) burned routing around the victim.
	RPCTimeouts int
	// NegotiationMicros is the negotiation makespan: the slowest of the
	// k concurrent negotiations, timeout and retry stalls included.
	NegotiationMicros float64
}

// PartitionSlowRow is one point of the slow-node companion table: a
// single negotiation against a cluster whose victim rank multiplies
// wire time by Factor — slow enough to blow deadlines, but alive, so
// nothing may be suspected or evacuated.
type PartitionSlowRow struct {
	Factor            int
	RPCTimeouts       int
	NegotiationMicros float64
}

// PartitionReport is the gated side of the partition figure.
type PartitionReport struct {
	// RejoinMicros is the time the live victim spends suspected: from
	// the lease expiry that routed around it to the first heartbeat
	// round after the heal — a pure protocol quantity, independent of k.
	RejoinMicros float64
	Points       []PartitionRow
	SlowPoints   []PartitionSlowRow
}

// Rows states the partition figure's gates: the rejoin latency and the
// RPC-timeout counts are deterministic protocol quantities — lease
// arithmetic and deadline expiries — so they are exact; the
// negotiation makespans summarize the cost model end to end and are
// ceilings. Zero evacuations is asserted inside Partition itself.
func (r PartitionReport) Rows() []Row {
	rows := []Row{{"partition", "rejoin", r.RejoinMicros, "us", Exact}}
	for _, p := range r.Points {
		k := fmt.Sprintf("k%d.", p.K)
		rows = append(rows,
			Row{"partition", k + "rpc_timeouts", float64(p.RPCTimeouts), "count", Exact},
			Row{"partition", k + "negotiation", p.NegotiationMicros, "us", Ceiling})
	}
	for _, p := range r.SlowPoints {
		x := fmt.Sprintf("slow_x%d.", p.Factor)
		rows = append(rows,
			Row{"partition", x + "rpc_timeouts", float64(p.RPCTimeouts), "count", Exact},
			Row{"partition", x + "negotiation", p.NegotiationMicros, "us", Ceiling})
	}
	return rows
}

// Partition window and heartbeat cadence for every partition run: the
// victim is unreachable from 1 ms to 9 ms, heartbeats tick every 1 ms,
// so the default 2-miss lease suspects it at 2 ms and the 9 ms round
// clears it — 7 ms spent suspected.
const (
	partitionStartMicros = 1_000
	partitionEndMicros   = 9_000
	partitionTickMicros  = 1_000
	// partitionNegoMicros launches the negotiations inside the window
	// but before the lease expires at 2 ms: the first initiator must
	// discover the victim unreachable through RPC deadlines; the ones
	// queued behind it run after suspicion lands and route around the
	// victim for free.
	partitionNegoMicros = 1_500
)

// Partition measures partial-failure tolerance on an 8-node cluster:
// for each k it partitions the last rank away from every peer, launches
// k concurrent negotiations from distinct live initiators mid-window,
// and reports the deadline expiries and the negotiation makespan. The
// victim is alive throughout: any evacuation, declaration, or failed
// negotiation panics the measurement rather than skewing it. The slow
// table repeats the exercise against a slowed (not partitioned) rank.
func Partition(ks, slowFactors []int) PartitionReport {
	var report PartitionReport
	for _, k := range ks {
		timeouts, nego, rejoin := partitionRun(k)
		if report.RejoinMicros == 0 {
			report.RejoinMicros = rejoin
		} else if rejoin != report.RejoinMicros {
			panic(fmt.Sprintf("bench: rejoin latency moved with k: %v vs %v µs", rejoin, report.RejoinMicros))
		}
		report.Points = append(report.Points, PartitionRow{K: k, RPCTimeouts: timeouts, NegotiationMicros: nego})
	}
	for _, f := range slowFactors {
		timeouts, nego := slowRun(f)
		report.SlowPoints = append(report.SlowPoints, PartitionSlowRow{Factor: f, RPCTimeouts: timeouts, NegotiationMicros: nego})
	}
	return report
}

// partitionRun is one staged partition: the victim cut off from every
// peer for the window, k negotiations launched mid-window before the
// lease expires. Returns the RPC-timeout count, the negotiation
// makespan and the rejoin latency (µs).
func partitionRun(k int) (timeouts int, negoMicros, rejoinMicros float64) {
	const nodes = 8
	const victim = nodes - 1
	spec := ""
	for p := 0; p < victim; p++ {
		if p > 0 {
			spec += ";"
		}
		spec += fmt.Sprintf("partition:%d-%d@%d..%d", victim, p, partitionStartMicros, partitionEndMicros)
	}
	plan, err := fault.Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: partition plan: %v", err))
	}
	c := pm2.New(pm2.Config{
		Nodes:      nodes,
		RPCTimeout: -1,
		Faults:     plan,
	}, progs.NewImage())
	for i := 1; i <= 64; i++ {
		c.Engine().At(simtime.Time(i*partitionTickMicros)*simtime.Microsecond, c.HeartbeatTick)
	}
	succeeded := 0
	for i := 0; i < k; i++ {
		initiator := i % victim // every live rank but never the victim
		c.Engine().At(partitionNegoMicros*simtime.Microsecond, func() {
			c.At(initiator, func(n *pm2.Node) {
				n.Negotiate(3, func(ok bool) {
					if !ok {
						panic(fmt.Sprintf("bench: partition k=%d: negotiation from node %d failed", k, initiator))
					}
					succeeded++
				})
			})
		})
	}
	c.Run(0)
	st := c.Stats()
	if succeeded != k {
		panic(fmt.Sprintf("bench: partition k=%d: %d negotiations succeeded", k, succeeded))
	}
	if st.Evacuations != 0 || c.NodeDown(victim) {
		panic(fmt.Sprintf("bench: partition k=%d: live victim evacuated or declared dead", k))
	}
	if st.Suspicions != 1 || st.Rejoins != 1 || len(st.RejoinLatencies) != 1 {
		panic(fmt.Sprintf("bench: partition k=%d: suspicions=%d rejoins=%d", k, st.Suspicions, st.Rejoins))
	}
	var makespan simtime.Time
	for _, l := range st.NegotiationLatencies {
		if l > makespan {
			makespan = l
		}
	}
	return st.RPCTimeouts, makespan.Micros(), st.RejoinLatencies[0].Micros()
}

// slowRun is one negotiation against a 4-node cluster whose last rank
// multiplies wire time by factor for the whole run. Returns the
// RPC-timeout count and the negotiation latency (µs).
func slowRun(factor int) (timeouts int, negoMicros float64) {
	const nodes = 4
	const victim = nodes - 1
	plan, err := fault.Parse(fmt.Sprintf("slow:%dx%d@0..100000", victim, factor))
	if err != nil {
		panic(fmt.Sprintf("bench: slow plan: %v", err))
	}
	c := pm2.New(pm2.Config{
		Nodes:      nodes,
		RPCTimeout: -1,
		Faults:     plan,
	}, progs.NewImage())
	for i := 1; i <= 64; i++ {
		c.Engine().At(simtime.Time(i*partitionTickMicros)*simtime.Microsecond, c.HeartbeatTick)
	}
	ok := false
	c.Engine().At(partitionTickMicros*simtime.Microsecond, func() {
		c.At(0, func(n *pm2.Node) { n.Negotiate(3, func(r bool) { ok = r }) })
	})
	c.Run(0)
	st := c.Stats()
	if !ok {
		panic(fmt.Sprintf("bench: slow x%d: negotiation failed", factor))
	}
	if st.Suspicions != 0 || st.Evacuations != 0 {
		panic(fmt.Sprintf("bench: slow x%d: suspicions=%d evacuations=%d, want 0", factor, st.Suspicions, st.Evacuations))
	}
	if len(st.NegotiationLatencies) != 1 {
		panic(fmt.Sprintf("bench: slow x%d: %d latency samples", factor, len(st.NegotiationLatencies)))
	}
	return st.RPCTimeouts, st.NegotiationLatencies[0].Micros()
}
