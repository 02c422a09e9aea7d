package bench

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/scenario/serve"
)

// ServeSLOBudgetMicros is the serving SLO the saturation analyzer holds
// every cohort to: worst per-cohort p99 end-to-end latency, in virtual
// microseconds. A rate point is sustainable only when the run drains
// within budget and meets this bound.
const ServeSLOBudgetMicros = 50_000

// ServeRateScales is the canonical saturation sweep: multiples of the
// base three-tenant arrival rate (~2.35 requests per virtual ms).
func ServeRateScales() []float64 {
	return []float64{1, 2, 4, 8, 12, 16, 24, 32}
}

// ServeCohortReport is one cohort's SLO summary at the base arrival
// rate — the per-tenant serving quality the CI report records.
type ServeCohortReport struct {
	Cohort         string
	Requests       int
	PlacementP50Us float64
	PlacementP95Us float64
	PlacementP99Us float64
	EndToEndP50Us  float64
	EndToEndP95Us  float64
	EndToEndP99Us  float64
}

// ServeSweepPoint is one rate point of the saturation sweep.
type ServeSweepPoint struct {
	RateScale float64
	Requests  int
	Completed int
	// Saturated: the run was cut off by its step budget with work still
	// pending (only past-knee points run under a tightened budget).
	Saturated bool
	// WorstP99Us is the worst per-cohort p99 end-to-end latency over
	// the requests that completed.
	WorstP99Us float64
	// Sustainable: drained within budget and WorstP99Us within the SLO.
	Sustainable bool
}

// ServeClusterReport is the serving figure for one cluster size: the
// per-cohort SLO at base rate plus the saturation sweep and its knee.
type ServeClusterReport struct {
	Nodes   int
	Cohorts []ServeCohortReport
	Sweep   []ServeSweepPoint
	// KneeRateScale is the highest sustainable rate scale (0 when even
	// the base rate misses the SLO) — the throughput knee the CI gate
	// holds as a floor.
	KneeRateScale float64
	// KneeThroughputPerMs is the completed requests per virtual
	// millisecond at the knee point.
	KneeThroughputPerMs float64
}

// ServeReport is the serving figure over every measured cluster size.
type ServeReport struct {
	Clusters []ServeClusterReport
}

// Rows states the serving figure's gates: each cluster size's knee and
// knee throughput are floors — a knee that falls is lost serving
// capacity. The per-cohort end-to-end percentiles at the base rate ride
// along as context; the SLO they are held to is already part of the
// knee criterion.
func (r ServeReport) Rows() []Row {
	var rows []Row
	for _, cl := range r.Clusters {
		n := fmt.Sprintf("n%d.", cl.Nodes)
		rows = append(rows,
			Row{"serve", n + "knee", cl.KneeRateScale, "x", Floor},
			Row{"serve", n + "knee_throughput", cl.KneeThroughputPerMs, "req/ms", Floor})
		for _, c := range cl.Cohorts {
			e2e := n + c.Cohort + ".e2e_"
			rows = append(rows,
				Row{"serve", e2e + "p50", c.EndToEndP50Us, "us", Info},
				Row{"serve", e2e + "p95", c.EndToEndP95Us, "us", Info},
				Row{"serve", e2e + "p99", c.EndToEndP99Us, "us", Info})
		}
	}
	return rows
}

// serveRun replays the derived serving workload at one rate scale.
func serveRun(policy string, seed uint64, nodes int, scale float64, maxSteps int) (*scenario.Result, error) {
	sp := serve.DeriveSpec(seed, nodes)
	sp.RateScale = scale
	reqs, err := sp.Synthesize(nodes)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Replay(scenario.Spec{
		Policy:         policy,
		Nodes:          nodes,
		Seed:           seed,
		MaxSteps:       maxSteps,
		AllowSaturated: true,
	}, reqs)
	if err != nil {
		return nil, err
	}
	if len(reqs) > 0 && len(res.Stats.CohortSamples) != len(reqs) {
		return nil, fmt.Errorf("bench: serve run recorded %d samples for %d requests", len(res.Stats.CohortSamples), len(reqs))
	}
	return res, nil
}

// worstP99 returns the worst per-cohort p99 end-to-end latency.
func worstP99(slos []scenario.CohortSLO) float64 {
	var worst float64
	for _, s := range slos {
		if s.EndToEnd.P99 > worst {
			worst = s.EndToEnd.P99
		}
	}
	return worst
}

// ServeFigure measures the serving workload on one cluster size: the
// per-cohort SLO at the base rate, then the ascending saturation sweep.
// The knee is the highest rate scale whose run drains and keeps every
// cohort's p99 end-to-end latency within ServeSLOBudgetMicros. Once a
// point misses the SLO the remaining (strictly worse) points run under
// a tightened step budget — twice the steps of the last sustainable
// point — so they cut off cheaply through the Saturated path instead of
// simulating a hopeless backlog to the end. Virtual steps are
// deterministic, so the cutoffs are too.
func ServeFigure(policy string, seed uint64, nodes int, scales []float64) (ServeClusterReport, error) {
	rep := ServeClusterReport{Nodes: nodes}

	base, err := serveRun(policy, seed, nodes, 1, 0)
	if err != nil {
		return rep, err
	}
	if base.Saturated {
		return rep, fmt.Errorf("bench: base-rate serve run saturated the default step budget")
	}
	if err := base.Verify(); err != nil {
		return rep, err
	}
	for _, s := range base.CohortSLOs() {
		rep.Cohorts = append(rep.Cohorts, ServeCohortReport{
			Cohort:         s.Cohort,
			Requests:       s.Requests,
			PlacementP50Us: s.Placement.P50,
			PlacementP95Us: s.Placement.P95,
			PlacementP99Us: s.Placement.P99,
			EndToEndP50Us:  s.EndToEnd.P50,
			EndToEndP95Us:  s.EndToEnd.P95,
			EndToEndP99Us:  s.EndToEnd.P99,
		})
	}

	pastKnee := false
	budget := 0 // 0 = the harness default
	var lastSustainableSteps uint64
	for _, scale := range scales {
		res, err := serveRun(policy, seed, nodes, scale, budget)
		if err != nil {
			return rep, err
		}
		slos := res.CohortSLOs()
		pt := ServeSweepPoint{RateScale: scale, Saturated: res.Saturated, WorstP99Us: worstP99(slos)}
		for _, s := range slos {
			pt.Requests += s.Requests
			pt.Completed += s.Completed
		}
		pt.Sustainable = !res.Saturated && pt.WorstP99Us <= ServeSLOBudgetMicros
		rep.Sweep = append(rep.Sweep, pt)
		if pt.Sustainable {
			rep.KneeRateScale = scale
			if virtMs := res.VirtualMicros / 1000; virtMs > 0 {
				rep.KneeThroughputPerMs = float64(pt.Completed) / virtMs
			}
			lastSustainableSteps = res.Steps
		} else if !pastKnee {
			pastKnee = true
			if lastSustainableSteps > 0 {
				budget = int(2 * lastSustainableSteps)
			}
		}
	}
	return rep, nil
}

// ServeSweep runs ServeFigure for each cluster size.
func ServeSweep(policy string, seed uint64, nodeCounts []int) (ServeReport, error) {
	var rep ServeReport
	for _, nodes := range nodeCounts {
		cl, err := ServeFigure(policy, seed, nodes, ServeRateScales())
		if err != nil {
			return rep, err
		}
		rep.Clusters = append(rep.Clusters, cl)
	}
	return rep, nil
}
