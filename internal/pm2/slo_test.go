package pm2

import (
	"math"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// TestNearestRankCeilRule pins the percentile helper against
// hand-computed nearest-rank values, including the small-series cases
// the old round-half-up implementation got wrong: the nearest-rank
// index must be ceil(p*n)-1.
func TestNearestRankCeilRule(t *testing.T) {
	series := func(n int) []simtime.Time {
		// 10, 20, ..., 10n µs — shuffled order must not matter.
		ls := make([]simtime.Time, n)
		for i := range ls {
			ls[i] = simtime.Time(10*(n-i)) * simtime.Microsecond
		}
		return ls
	}
	cases := []struct {
		n             int
		p50, p95, p99 float64
	}{
		// n=10: ceil(5)=5th, ceil(9.5)=10th, ceil(9.9)=10th sample.
		{10, 50, 100, 100},
		// n=13: ceil(6.5)=7th, ceil(12.35)=13th, ceil(12.87)=13th.
		// Round-half-up picked int(12.85)-1 = the 12th sample for p95.
		{13, 70, 130, 130},
		// n=20: ceil(10)=10th, ceil(19)=19th, ceil(19.8)=20th.
		{20, 100, 190, 200},
		// n=100: ceil(50)=50th, ceil(95)=95th, ceil(99)=99th.
		{100, 500, 950, 990},
		// n=1: everything is the single sample.
		{1, 10, 10, 10},
	}
	for _, tc := range cases {
		got := NearestRank(series(tc.n))
		if got.P50 != tc.p50 || got.P95 != tc.p95 || got.P99 != tc.p99 {
			t.Errorf("n=%d: got p50/p95/p99 = %v/%v/%v, want %v/%v/%v",
				tc.n, got.P50, got.P95, got.P99, tc.p50, tc.p95, tc.p99)
		}
	}
	if got := NearestRank(nil); got != (Percentiles{}) {
		t.Errorf("empty series: got %+v, want zeros", got)
	}
}

// TestNearestRankRejectsRoundHalfUp is the regression guard the issue
// asks for: it evaluates the OLD round-half-up indexing alongside the
// corrected ceil rule on a series where they disagree, and fails if the
// helper ever reverts. n=13 at p=0.95: ceil(12.35)-1 = 12 (the maximum
// sample), round-half-up int(12.85)-1 = 11 (one below it).
func TestNearestRankRejectsRoundHalfUp(t *testing.T) {
	n := 13
	ls := make([]simtime.Time, n)
	for i := range ls {
		ls[i] = simtime.Time(10*(i+1)) * simtime.Microsecond
	}
	oldIndex := int(0.95*float64(n)+0.5) - 1
	newIndex := int(math.Ceil(0.95*float64(n))) - 1
	if oldIndex == newIndex {
		t.Fatalf("test series does not discriminate the two rules (both index %d)", oldIndex)
	}
	oldP95 := ls[oldIndex].Micros()
	got := NearestRank(ls)
	if got.P95 == oldP95 {
		t.Fatalf("p95 = %v matches the round-half-up value — helper regressed to int(p*n+0.5)-1", got.P95)
	}
	if want := ls[newIndex].Micros(); got.P95 != want {
		t.Fatalf("p95 = %v, want ceil-rule value %v", got.P95, want)
	}
}

// TestSpawnCohortLifecycle drives tagged spawns end to end: every
// sample must be placed and completed, with monotone arrival ≤ placed ≤
// finished stamps, and untagged spawns must record nothing.
func TestSpawnCohortLifecycle(t *testing.T) {
	c := newCluster(t, Config{Nodes: 2})
	c.SpawnCohort(0, "worker", 2000, "api")
	c.SpawnCohort(1, "worker", 3000, "api")
	c.SpawnCohort(0, "pingpong", 2, "bounce")
	c.Spawn(1, "worker", 1000) // untagged
	c.Run(0)
	st := c.Stats()
	if len(st.CohortSamples) != 3 {
		t.Fatalf("got %d cohort samples, want 3 (untagged spawn must not record)", len(st.CohortSamples))
	}
	byCohort := map[string]int{}
	for i, s := range st.CohortSamples {
		byCohort[s.Cohort]++
		if !s.PlacedOK || !s.Done {
			t.Fatalf("sample %d (%s): placed=%v done=%v, want both true", i, s.Cohort, s.PlacedOK, s.Done)
		}
		if s.Node < 0 || s.Node >= 2 {
			t.Fatalf("sample %d: placed on node %d", i, s.Node)
		}
		if s.Placed < s.Arrival || s.Finished < s.Placed {
			t.Fatalf("sample %d: non-monotone stamps arrival=%v placed=%v finished=%v",
				i, s.Arrival, s.Placed, s.Finished)
		}
		if s.EndToEndLatency() <= 0 || s.PlacementLatency() < 0 {
			t.Fatalf("sample %d: latencies e2e=%v placement=%v", i, s.EndToEndLatency(), s.PlacementLatency())
		}
	}
	if byCohort["api"] != 2 || byCohort["bounce"] != 1 {
		t.Fatalf("cohort counts = %v, want api:2 bounce:1", byCohort)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnCohortCompletesAcrossMigration pins the part that makes the
// accounting trustworthy under the balancer: a tagged thread that
// migrates (pingpong hops between both nodes) must still complete its
// sample — TIDs survive migration and the exit hook fires wherever the
// thread dies.
func TestSpawnCohortCompletesAcrossMigration(t *testing.T) {
	c := newCluster(t, Config{Nodes: 2})
	c.SpawnCohort(0, "pingpong", 5, "hopper")
	c.Run(0)
	st := c.Stats()
	if st.Migrations != 5 {
		t.Fatalf("migrations = %d, want 5", st.Migrations)
	}
	if len(st.CohortSamples) != 1 || !st.CohortSamples[0].Done {
		t.Fatalf("sample not completed across migrations: %+v", st.CohortSamples)
	}
	// 5 hops from node 0 ends on node 1; the completion stamp must come
	// from after the last hop, i.e. at least the sum of the migration
	// latencies after placement.
	s := st.CohortSamples[0]
	var mig simtime.Time
	for _, l := range st.MigrationLatencies {
		mig += l
	}
	if s.EndToEndLatency() < mig {
		t.Fatalf("end-to-end %v < total migration time %v", s.EndToEndLatency(), mig)
	}
}

// allToNode1 is a slot distribution that leaves node 0 with nothing, so
// any thread creation there must buy a slot through the §4.4 protocol.
type allToNode1 struct{}

func (allToNode1) Mark(bm *bitmap.Bitmap, node, p int) {
	if node == 1 {
		bm.SetRun(0, layout.SlotCount)
	}
}
func (allToNode1) Name() string { return "all-to-node1" }

// TestSpawnCohortNegotiatedPlacement forces the placement through the
// §4.4 negotiation path: node 0 owns zero slots, so the cohort spawn
// must negotiate one before creating the thread — and the sample's
// time-to-placement must cover that negotiation.
func TestSpawnCohortNegotiatedPlacement(t *testing.T) {
	c := New(Config{Nodes: 2, Dist: allToNode1{}}, progs.NewImage())
	c.SpawnCohort(0, "worker", 1000, "t")
	c.Run(0)
	st := c.Stats()
	if st.Negotiations == 0 {
		t.Fatal("spawn on an empty node did not negotiate")
	}
	if len(st.CohortSamples) != 1 {
		t.Fatalf("got %d samples, want 1", len(st.CohortSamples))
	}
	s := st.CohortSamples[0]
	if !s.PlacedOK || !s.Done {
		t.Fatalf("sample not completed: %+v", s)
	}
	if s.PlacementLatency() < st.NegotiationLatencies[0] {
		t.Fatalf("time-to-placement %v < negotiation latency %v — the negotiation is not inside the placement window",
			s.PlacementLatency(), st.NegotiationLatencies[0])
	}
}
