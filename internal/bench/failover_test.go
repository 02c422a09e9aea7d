package bench

import "testing"

// TestFailoverBench pins the failover measurement's shape: detection is
// phase-exact and independent of batch size, evacuation makespan does
// not shrink as the victim holds more threads, and reclaim always
// recovers the dead rank's slot range.
func TestFailoverBench(t *testing.T) {
	report := Failover([]int{1, 4, 8})
	// The staged crash lands exactly on a heartbeat tick, so the first
	// miss is immediate and the 2-miss lease expires one period after
	// the crash — not two. (The general bound is (misses-1)·period <
	// detection ≤ misses·period, set by the crash's phase within the
	// heartbeat round.)
	if report.DetectionMicros != failoverTickMicros {
		t.Fatalf("detection %.1f µs, want %d (lease expiry one period after an on-tick crash)",
			report.DetectionMicros, failoverTickMicros)
	}
	prev := 0.0
	for _, row := range report.Points {
		if row.EvacLegacyMicros <= 0 || row.EvacConvoyMicros <= 0 {
			t.Fatalf("k=%d: non-positive evacuation makespan %+v", row.K, row)
		}
		if row.EvacLegacyMicros < prev {
			t.Fatalf("k=%d: legacy makespan %.1f µs shrank below k-1's %.1f",
				row.K, row.EvacLegacyMicros, prev)
		}
		prev = row.EvacLegacyMicros
		if row.ReclaimedSlots == 0 {
			t.Fatalf("k=%d: no slots reclaimed", row.K)
		}
	}
}
