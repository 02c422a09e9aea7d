package perf

import (
	"encoding/json"
	"fmt"
	"os"
)

// Clocks. Virtual metrics come from the calibrated cost model and are the
// paper's quantities: deterministic, so every repetition and the traced
// pass must reproduce them exactly. Host metrics measure how fast the
// simulator itself runs on the machine.
const (
	Virtual = "virtual"
	Host    = "host"
)

// Metric kinds. End-to-end metrics are what a user of the system sees and
// what the regression bounds apply to; every listed workload reports every
// one of them. Layer metrics explain the end-to-end ones and are reported
// by the traced pass. Extra metrics are printed for people (failure ratio,
// the paper's §5 figures) but are not part of BENCHMARK.json.
const (
	EndToEnd = "e2e"
	Layer    = "layer"
	Extra    = "extra"
)

// Metric describes one reported quantity.
type Metric struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "lower" or "higher"
	Kind   string
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before a change counts as a regression.
	Bound float64
	// Floor is an absolute tolerance added to Bound×median when comparing
	// (set-up times of small clusters are a few milliseconds).
	Floor float64
	// Moves names, for a layer metric, the end-to-end metric it should
	// move and on which workload; for an end-to-end metric, what it is.
	Moves string
}

// catalog is every metric the benchmark reports, in report order.
var catalog = []Metric{
	{Name: "setup_s", Unit: "s", Clock: Host, Better: "lower", Kind: EndToEnd, Bound: 0.25, Floor: 0.005,
		Moves: "host time to build the cluster and queue its inputs, in reference seconds (median of the repetitions)"},
	{Name: "run_s", Unit: "s", Clock: Host, Better: "lower", Kind: EndToEnd, Bound: 0.20,
		Moves: "host time from the first drain to quiescence, in reference seconds; recover includes the checkpoint round trip; checks excluded"},
	{Name: "live_heap_mb", Unit: "MB", Clock: Host, Better: "lower", Kind: EndToEnd, Bound: 0.05,
		Moves: "HeapInuse after a GC at the end of the drain, cluster still live"},
	{Name: "makespan_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: EndToEnd, Bound: 0.20,
		Moves: "latest thread completion in virtual time"},
	{Name: "latency_us_p50", Unit: "us", Clock: Virtual, Better: "lower", Kind: EndToEnd, Bound: 0.20,
		Moves: "median latency of the workload's operation: ring a hop migration, alloc a negotiation, serve and recover a request (arrival to exit)"},
	{Name: "latency_us_p99", Unit: "us", Clock: Virtual, Better: "lower", Kind: EndToEnd, Bound: 0.20,
		Moves: "p99 of the same operation latency (every workload has at least 1,000 samples)"},

	{Name: "simtime.events", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on every workload"},
	{Name: "simtime.ns_per_event", Unit: "ns", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on every workload"},
	{Name: "simtime.window_lanes", Unit: "count", Clock: Virtual, Better: "higher", Kind: Layer, Moves: "run_s on ring (0 on the serial-kernel workloads)"},
	{Name: "simtime.parallel_share", Unit: "ratio", Clock: Virtual, Better: "higher", Kind: Layer, Moves: "run_s on ring (0 on the serial-kernel workloads)"},
	{Name: "vm.instrs", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on serve and ring"},
	{Name: "marcel.dispatches", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on serve and ring"},
	{Name: "vm.ns_per_instr", Unit: "ns", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on serve and ring (probe: 1-node worker run)"},
	{Name: "pm2.migrations", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p50/p99 and run_s on ring"},
	{Name: "pm2.migrated_mb", Unit: "MB", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p50/p99 and run_s on ring"},
	{Name: "pm2.migration_us_p50", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on serve"},
	{Name: "host.alloc_kb_per_migration", Unit: "KB", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s and live_heap_mb on ring"},
	{Name: "madeleine.pool_hit_ratio", Unit: "ratio", Clock: Host, Better: "higher", Kind: Layer, Moves: "run_s on ring"},
	{Name: "madeleine.pack_ns_per_byte", Unit: "ns", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on ring (probe: 16 KB pack/unpack)"},
	{Name: "bip.messages", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on every workload"},
	{Name: "bip.mb", Unit: "MB", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on every workload"},
	{Name: "bip.dropped", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "failed share on recover"},
	{Name: "pm2.negotiations", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on alloc"},
	{Name: "pm2.negotiation_retries", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on alloc"},
	{Name: "pm2.version_declines", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on alloc"},
	{Name: "pm2.negotiation_failures", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on alloc, failed share on recover"},
	{Name: "pm2.purchase_yield", Unit: "ratio", Clock: Virtual, Better: "higher", Kind: Layer, Moves: "latency_us_p99 on alloc"},
	{Name: "pm2.negotiation_us_p50", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on recover"},
	{Name: "bitmap.merged_mb", Unit: "MB", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on alloc"},
	{Name: "bitmap.or_ns_per_word", Unit: "ns", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on alloc (probe: OrBytes on a full 7 KB map)"},
	{Name: "core.setup_us_per_node", Unit: "us", Clock: Host, Better: "lower", Kind: Layer, Moves: "setup_s on ring"},
	{Name: "pm2.placement_us_p99", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on serve and recover"},
	{Name: "loadbal.rounds", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on serve"},
	{Name: "loadbal.moves", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on serve"},
	{Name: "loadbal.move_share", Unit: "ratio", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on serve"},
	{Name: "serve.sustainable_rate_x", Unit: "x", Clock: Virtual, Better: "higher", Kind: Layer, Moves: "the open-loop capacity behind latency_us_p99 on serve (rate ladder, traced pass only)"},
	{Name: "pm2.rpc_timeouts", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on recover"},
	{Name: "pm2.suspicions", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on recover"},
	{Name: "pm2.rejoins", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on recover"},
	{Name: "pm2.detect_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "pm2.recovery_us and latency_us_p99 on recover"},
	{Name: "pm2.rejoin_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "latency_us_p99 on recover"},
	{Name: "pm2.evacuated_threads", Unit: "count", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "pm2.recovery_us on recover"},
	{Name: "pm2.reclaimed_slots", Unit: "count", Clock: Virtual, Better: "higher", Kind: Layer, Moves: "pm2.recovery_us on recover"},
	{Name: "pm2.recovery_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "makespan_us and latency_us_p99 on recover (crash to last evacuee thawed)"},
	{Name: "pm2.rpc_tail_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on recover (last node busy instant minus makespan)"},
	{Name: "pm2ckpt.kb", Unit: "KB", Clock: Virtual, Better: "lower", Kind: Layer, Moves: "run_s on recover"},
	{Name: "pm2ckpt.capture_ms", Unit: "ms", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on recover"},
	{Name: "pm2ckpt.encode_ms", Unit: "ms", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on recover"},
	{Name: "pm2ckpt.decode_ms", Unit: "ms", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on recover"},
	{Name: "pm2ckpt.restore_ms", Unit: "ms", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on recover"},
	{Name: "host.run_wall_s", Unit: "s", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on every workload (the drain's raw wall time)"},
	{Name: "host.calibration_ms", Unit: "ms", Clock: Host, Better: "lower", Kind: Layer, Moves: "nothing: the calibration kernel's time, how fast the machine was"},
	{Name: "host.alloc_mb", Unit: "MB", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s and live_heap_mb on every workload"},
	{Name: "host.gc_cycles", Unit: "count", Clock: Host, Better: "lower", Kind: Layer, Moves: "run_s on every workload"},
	{Name: "verify_s", Unit: "s", Clock: Host, Better: "lower", Kind: Layer, Moves: "nothing end to end: the checks are excluded from run_s"},
	{Name: "trace.overhead_pct", Unit: "pct", Clock: Host, Better: "lower", Kind: Layer, Moves: "nothing: traced run_s against the untraced median"},

	{Name: "failed_ratio", Unit: "ratio", Clock: Virtual, Better: "lower", Kind: Extra,
		Moves: "(threads not finished + failed negotiations) / (threads + negotiations)"},
	{Name: "paper.migration_null_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Extra, Moves: "§5: null thread ping-pong, the paper claims < 75 us"},
	{Name: "paper.negotiation_2node_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Extra, Moves: "§5: one multi-slot negotiation on 2 nodes, the paper reports 255 us"},
	{Name: "paper.negotiation_slope_us", Unit: "us", Clock: Virtual, Better: "lower", Kind: Extra, Moves: "§5: least-squares cost per extra node over 4-16 nodes, the paper reports 165 us"},
	{Name: "paper.err_pct", Unit: "pct", Clock: Virtual, Better: "lower", Kind: Extra, Moves: "worst relative error of the two negotiation figures against the paper"},
}

// selfGroups are the module groups the traced pass's CPU profile is split
// into, as self.<group>_pct layer metrics.
var selfGroups = []string{"simtime", "vm", "marcel", "pm2", "madeleine", "bip", "bitmap", "core", "policy", "runtime", "other"}

func init() {
	for _, g := range selfGroups {
		catalog = append(catalog, Metric{
			Name: "self." + g + "_pct", Unit: "pct", Clock: Host, Better: "lower", Kind: Layer,
			Moves: "run_s on every workload (flat CPU-profile share of the traced pass)",
		})
	}
}

// lookup returns the catalog entry for name.
func lookup(name string) (Metric, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Catalog returns the metric catalog.
func Catalog() []Metric { return append([]Metric(nil), catalog...) }

// BenchmarkFile is the schema of the repository's BENCHMARK.json.
type BenchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []BenchWorkload  `json:"workloads"`
	EndToEnd   []BenchE2EMetric `json:"end_to_end"`
	PerLayer   []BenchMetric    `json:"per_layer"`
}

// BenchWorkload is one BENCHMARK.json workload entry.
type BenchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// BenchE2EMetric is one BENCHMARK.json end-to-end metric.
type BenchE2EMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// BenchMetric is one BENCHMARK.json per-layer metric.
type BenchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// LoadBenchmark reads a BENCHMARK.json file.
func LoadBenchmark(path string) (*BenchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	return &b, nil
}

// Matches reports the first difference between the file and the catalog:
// the listed workloads, and every end-to-end and layer metric with its
// unit, direction and bound.
func (b *BenchmarkFile) Matches() error {
	var want []string
	for _, w := range workloads {
		if w.listed {
			want = append(want, w.name)
		}
	}
	if len(b.Workloads) != len(want) {
		return fmt.Errorf("perf: BENCHMARK.json lists %d workloads, the benchmark drives %d", len(b.Workloads), len(want))
	}
	for i, w := range b.Workloads {
		if w.Name != want[i] {
			return fmt.Errorf("perf: BENCHMARK.json workload %d is %q, want %q", i, w.Name, want[i])
		}
	}
	var e2e, layer []Metric
	for _, m := range catalog {
		switch m.Kind {
		case EndToEnd:
			e2e = append(e2e, m)
		case Layer:
			layer = append(layer, m)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		return fmt.Errorf("perf: BENCHMARK.json has %d/%d end-to-end/per-layer metrics, the catalog %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	for i, m := range b.EndToEnd {
		c := e2e[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			return fmt.Errorf("perf: BENCHMARK.json end-to-end metric %+v, catalog %s %s %s %v", m, c.Name, c.Unit, c.Better, c.Bound)
		}
	}
	for i, m := range b.PerLayer {
		c := layer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			return fmt.Errorf("perf: BENCHMARK.json per-layer metric %+v, catalog %s %s %s", m, c.Name, c.Unit, c.Better)
		}
	}
	return nil
}
