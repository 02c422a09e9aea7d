// Command pm2perf is the repository benchmark: it runs the internal/perf
// workloads, checks every output, and prints one "workload metric value
// unit" line per metric followed by a one-line JSON summary.
//
//	pm2perf -seed 1                          # every workload, untraced
//	pm2perf -workload ring -seconds 10       # one workload, 10 s of timed repetitions
//	pm2perf -workload serve -trace 1         # plus the traced pass (layer metrics)
//	pm2perf -trace out/                      # traced, spans written under out/<workload>/
//	pm2perf -json base.json                  # also write medians, spreads and sample counts
//	pm2perf -compare base.json new.json      # judge new against base by the BENCHMARK.json bounds
//
// Run -compare from the repository root, where BENCHMARK.json lives.
//
// Without -trace the summary carries the end-to-end metrics; with it, the
// per-layer ones. The exit code is 1 when a check fails (or, with
// -compare, when a row regressed or is unresolved), 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/perf"
)

// defaultTraceDir receives the spans of "-trace 1" runs.
const defaultTraceDir = ".bench_build/pm2perf-trace"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run: all, "+strings.Join(perf.Workloads(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 0, "host seconds of timed repetitions per workload (at least 5 repetitions run)")
	trace := flag.String("trace", "0", "0: untraced; 1: add the traced pass; a directory: add it and write spans there")
	jsonOut := flag.String("json", "", "write the full report (median, quartiles, min, max, sample counts) to this file")
	compare := flag.String("compare", "", "compare this base report with the report named by the first argument")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "pm2perf: -compare BASE.json NEW.json")
			return 2
		}
		return runCompare(*compare, flag.Arg(0))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pm2perf: unexpected arguments %v\n", flag.Args())
		return 2
	}

	opts := perf.Options{Seed: *seed, Seconds: *seconds, Progress: os.Stderr}
	switch *trace {
	case "0", "":
	case "1":
		opts.Trace, opts.TraceDir = true, defaultTraceDir
	default:
		opts.Trace, opts.TraceDir = true, *trace
	}
	names := perf.Workloads()
	if *workload != "all" {
		names = []string{*workload}
	}

	report := perf.NewReport(opts)
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, name := range names {
		res, err := perf.Run(name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pm2perf:", err)
			return 2
		}
		report.Results = append(report.Results, res)
		fmt.Printf("# %s inputs=%s reps=%d correct=%t attempted=%d failed=%d\n",
			name, res.Digest, res.Reps, res.Correct, res.Attempted, res.Failed)
		for _, p := range res.Problems {
			fmt.Fprintf(os.Stderr, "pm2perf: %s: check failed: %s\n", name, p)
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for _, m := range perf.Catalog() {
			s, ok := res.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Printf("%s %s %s %s\n", name, m.Name, strconv.FormatFloat(s.Median, 'g', -1, 64), m.Unit)
			if (m.Kind == perf.EndToEnd && !opts.Trace) || (m.Kind == perf.Layer && opts.Trace) {
				key := m.Name
				if len(names) > 1 {
					key = name + "/" + m.Name
				}
				summary.Metrics[key] = map[string]any{"value": s.Median, "unit": m.Unit}
			}
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pm2perf: writing report:", err)
			return 2
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pm2perf:", err)
		return 2
	}
	fmt.Println(string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

// runCompare judges a new report against a base one. It runs from the
// repository root, where BENCHMARK.json holds the bounds; the file must
// match the benchmark's metric catalog.
func runCompare(basePath, newPath string) int {
	bench, err := perf.LoadBenchmark("BENCHMARK.json")
	if err == nil {
		err = bench.Matches()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pm2perf:", err)
		return 2
	}
	load := func(path string) (*perf.Report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r perf.Report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	base, err := load(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pm2perf:", err)
		return 2
	}
	cur, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pm2perf:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-8s %-15s %-34s %-34s %s\n", "workload", "metric", "base median [min, max]", "new median [min, max]", "verdict")
	for _, r := range perf.Compare(base, cur) {
		side := func(s perf.Summary) string {
			return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Min, s.Max)
		}
		fmt.Printf("%-8s %-15s %-34s %-34s %s\n", r.Workload, r.Metric.Name, side(r.Base), side(r.New), r.Verdict)
		if r.Verdict == perf.Regressed || r.Verdict == perf.Unresolved {
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
