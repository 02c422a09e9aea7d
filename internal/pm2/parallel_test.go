package pm2

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/progs"
)

// runParallelWorkload drives a migration- and negotiation-heavy workload
// on an 8-node cluster with the given configuration and returns its
// observable outcome: the full trace bytes and the cluster stats.
func runParallelWorkload(t *testing.T, cfg Config) (string, Stats) {
	t.Helper()
	cfg.Nodes = 8
	c := newCluster(t, cfg)
	// Ping-pong threads hop between nodes (cross-lane migrations), and
	// multi-slot isomallocs force §4.4 negotiations through the
	// configured arbiter — initiators, sellers and any lock queue all
	// live on different lanes.
	for i := 0; i < 8; i++ {
		c.Spawn(i, "pingpong", 6)
		c.Spawn(i, "allocone", 200_000)
	}
	c.Run(0)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return c.Trace().String(), c.Stats()
}

// TestParallelClusterMatchesSerial exercises the full pm2 runtime on the
// parallel kernel — this is the test `go test -race ./internal/pm2` uses
// to shake out the windowed executor — and pins that the trace bytes and
// every stat match the serial run exactly.
func TestParallelClusterMatchesSerial(t *testing.T) {
	serialTrace, serialStats := runParallelWorkload(t, Config{Workers: 1})
	if serialStats.Migrations == 0 || serialStats.Negotiations == 0 {
		t.Fatalf("workload performed %d migrations / %d negotiations — not exercising the kernel",
			serialStats.Migrations, serialStats.Negotiations)
	}
	for _, workers := range []int{2, 4, 8} {
		gotTrace, gotStats := runParallelWorkload(t, Config{Workers: workers})
		if gotTrace != serialTrace {
			t.Fatalf("workers=%d trace deviates from serial run:\ngot:\n%s\nwant:\n%s",
				workers, gotTrace, serialTrace)
		}
		if !reflect.DeepEqual(gotStats, serialStats) {
			t.Fatalf("workers=%d stats deviate:\ngot:  %+v\nwant: %+v", workers, gotStats, serialStats)
		}
	}
}

// TestParallelGatherMatrix runs the workload across the full gather ×
// arbiter × workers matrix and pins byte-identical traces and identical
// stats at every worker count. No gather strategy reads another lane's
// state, so every one of them runs under the windowed parallel executor.
func TestParallelGatherMatrix(t *testing.T) {
	gathers := []GatherMode{GatherSequential, GatherTree, GatherDelta}
	arbiters := []ArbiterMode{ArbiterGlobal, ArbiterSharded}
	for _, gather := range gathers {
		for _, arbiter := range arbiters {
			gather, arbiter := gather, arbiter
			t.Run(fmt.Sprintf("%v_%v", gather, arbiter), func(t *testing.T) {
				t.Parallel()
				base := Config{Gather: gather, Arbiter: arbiter}
				serialCfg := base
				serialCfg.Workers = 1
				serialTrace, serialStats := runParallelWorkload(t, serialCfg)
				if serialStats.Negotiations == 0 {
					t.Fatal("workload performed no negotiations — not exercising the gather")
				}
				for _, workers := range []int{2, 4} {
					cfg := base
					cfg.Workers = workers
					gotTrace, gotStats := runParallelWorkload(t, cfg)
					if gotTrace != serialTrace {
						t.Fatalf("workers=%d trace deviates from serial run", workers)
					}
					if !reflect.DeepEqual(gotStats, serialStats) {
						t.Fatalf("workers=%d stats deviate:\ngot:  %+v\nwant: %+v",
							workers, gotStats, serialStats)
					}
				}
			})
		}
	}
}

// TestConfigValidate pins the construction-time validation contract:
// structural errors are reported by NewChecked (and Validate) instead of
// a panic, and every gather builds and runs with a parallel kernel.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0},
		{Nodes: -3},
		{Nodes: 4, Workers: -1},
		{Nodes: 4, PreBuySlots: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected an error", cfg)
		}
		if _, err := NewChecked(cfg, progs.NewImage()); err == nil {
			t.Errorf("NewChecked(%+v): expected an error", cfg)
		}
	}
	for _, gather := range []GatherMode{GatherTree, GatherDelta} {
		c, err := NewChecked(Config{Nodes: 4, Workers: 4, Gather: gather}, progs.NewImage())
		if err != nil {
			t.Fatalf("Workers=4 with %v gather: %v", gather, err)
		}
		if got := c.Engine().Workers(); got != 4 {
			t.Fatalf("Workers=4 with %v gather: kernel runs %d workers", gather, got)
		}
	}
}
