package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline writes rows as dir/BENCH_<figure>.baseline.txt.
func writeBaseline(t *testing.T, dir string, rows []Row) {
	t.Helper()
	path, err := WriteReport(dir, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, strings.TrimSuffix(path, ".txt")+".baseline.txt"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckGates: every way the gate can fail, and the at-limit values
// that must still pass.
func TestCheckGates(t *testing.T) {
	base := []Row{
		{"fig", "lat", 100, "us", Ceiling},   // limit 100×1.25 + 1 = 126
		{"fig", "knee", 8, "x", Floor},       // limit 8×0.75 − 0 = 6
		{"fig", "events", 3, "count", Exact}, // limit 3
	}
	with := func(metric string, v float64) []Row {
		cur := append([]Row(nil), base...)
		for i := range cur {
			if cur[i].Metric == metric {
				cur[i].Value = v
			}
		}
		return cur
	}
	for _, tc := range []struct {
		name string
		cur  []Row // nil: no current report at all
		ok   bool
		want string
	}{
		{"at limit", with("lat", 126), true, "fig lat 126 us ceiling baseline 100 limit 126 ok"},
		{"floor at limit", with("knee", 6), true, "fig knee 6 x floor baseline 8 limit 6 ok"},
		{"ceiling breach", with("lat", 126.001), false, "fig lat 126.001 us ceiling baseline 100 limit 126 REGRESSED"},
		{"floor breach", with("knee", 5.99), false, "fig knee 5.99 x floor baseline 8 limit 6 REGRESSED"},
		{"exact change", with("events", 4), false, "fig events 4 count exact baseline 3 limit 3 CHANGED"},
		{"missing baseline row", base[1:], false, "fig lat MISSING from current report"},
		{"extra current row", append(with("lat", 90), Row{"fig", "new", 1, "count", Exact}), false, "fig new MISSING from baseline"},
		{"extra info row", append(with("lat", 90), Row{"fig", "wall", 1, "ms", Info}), true, "fig lat 90 us ceiling baseline 100 limit 126 ok"},
		{"missing current file", nil, false, "fig MISSING: no current report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, curDir := t.TempDir(), t.TempDir()
			writeBaseline(t, baseDir, base)
			if tc.cur != nil {
				if _, err := WriteReport(curDir, tc.cur); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			ok, err := Check(&out, baseDir, curDir)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
				t.Fatalf("Check = %v, want %v with %q in:\n%s", ok, tc.ok, tc.want, out.String())
			}
		})
	}
}

// TestCheckNeedsBaselines: an empty baseline directory is an error, not
// a vacuous pass.
func TestCheckNeedsBaselines(t *testing.T) {
	if _, err := Check(&bytes.Buffer{}, t.TempDir(), t.TempDir()); err == nil {
		t.Fatal("Check passed with no baselines")
	}
}

// TestReadRowsRejects: malformed report lines are errors.
func TestReadRowsRejects(t *testing.T) {
	for _, body := range []string{
		"fig lat 1 us",                                 // four columns
		"fig lat 1 us ceiling extra",                   // six columns
		"fig lat NaN us ceiling",                       // not finite
		"fig lat +Inf us ceiling",                      // not finite
		"fig lat 1e400 us ceiling",                     // overflows
		"fig lat one us ceiling",                       // not a number
		"fig lat 1 us tolerance",                       // unknown gate
		"fig lat 1 us ceiling\nfig lat 2 us ceiling\n", // repeated metric
	} {
		path := filepath.Join(t.TempDir(), "BENCH_fig.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, err := readRows(path); err == nil {
			t.Errorf("readRows(%q) = %v, want an error", body, rows)
		}
	}
}

// TestReportRowsRoundTrip: every gated figure's rows, written and read
// back, carry bit-identical values, one figure per file.
func TestReportRowsRoundTrip(t *testing.T) {
	odd := 0.1 + 0.2 // no short decimal form
	for _, rows := range [][]Row{
		NegotiationReport{
			"sequential": {ColdSlopeMicrosPerNode: 170.95518279569896, WarmSlopeMicrosPerNode: odd, ColdMergedBytes: 451584, WarmMergedBytes: 903168},
			"delta":      {ColdSlopeMicrosPerNode: 41.97974731182796, WarmSlopeMicrosPerNode: 9.619182795698922},
		}.Rows(),
		MigrationReport{PayloadBytes: 65536, LegacyMicrosPerHop: 2181.074, ZeroCopyMicrosPerHop: odd,
			Convoy: []ConvoyRow{{K: 1, PerThreadLegacyMicros: 1784.832, PerThreadConvoyMicros: 1374.74, ConvoyBytesPerThread: 65848}}}.Rows(),
		ServeReport{Clusters: []ServeClusterReport{{Nodes: 16, KneeRateScale: 8, KneeThroughputPerMs: 2.65,
			Cohorts: []ServeCohortReport{{Cohort: "api", EndToEndP50Us: odd, EndToEndP95Us: 9969.793, EndToEndP99Us: 1e21}}}}}.Rows(),
		FailoverReport{DetectionMicros: 1000, Points: []FailoverRow{{K: 16, EvacLegacyMicros: 134.501, EvacConvoyMicros: odd, ReclaimedSlots: 14319}}}.Rows(),
		PartitionReport{RejoinMicros: 7000, Points: []PartitionRow{{K: 1, RPCTimeouts: 3, NegotiationMicros: odd}},
			SlowPoints: []PartitionSlowRow{{Factor: 50, RPCTimeouts: 3, NegotiationMicros: 1348.523}}}.Rows(),
		ScaleReport{Hops: 16, Spin: 2000, EventsSlopePerNode: 280.5, Clusters: []ScaleClusterReport{{
			Nodes: 4096, Threads: 2048, Events: 1 << 40, Migrations: 32768, VirtualMicros: odd, WallMs: odd,
			Gathers: []ScaleGatherReport{{Gather: "tree", Events: 2048, Negotiations: 8, MergedBytes: 3612672, VirtualMicros: 14701.285, WallMs: 1e-9}},
		}}}.Rows(),
	} {
		dir := t.TempDir()
		path, err := WriteReport(dir, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := filepath.Join(dir, "BENCH_"+rows[0].Figure+".txt"); path != want {
			t.Fatalf("WriteReport wrote %s, want %s", path, want)
		}
		got, err := readRows(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%s: read %d rows, wrote %d", path, len(got), len(rows))
		}
		for i, r := range rows {
			g := got[i]
			if r.Figure != rows[0].Figure || g.Figure != r.Figure || g.Metric != r.Metric || g.Unit != r.Unit || g.Gate != r.Gate ||
				math.Float64bits(g.Value) != math.Float64bits(r.Value) {
				t.Fatalf("%s row %d: wrote %+v, read %+v", path, i, r, g)
			}
		}
	}
}
