package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// A report is the machine-readable side of a gated figure: one line
// per measured quantity,
//
//	<figure> <metric> <value> <unit> <gate>
//
// which is pm2perf's `workload metric value unit` line plus a gate
// column saying how the value is held against its committed baseline.
// `pm2bench -report DIR` writes DIR/BENCH_<figure>.txt; CI keeps the
// gated rows of each under ci/BENCH_<figure>.baseline.txt, and Check
// compares the two. A figure states each value's gate in its Rows
// method, so a new figure adds no gate code.

// Gate says how a row is compared against its baseline.
type Gate string

const (
	// Exact rows are deterministic virtual quantities: the current
	// value must equal the baseline bit for bit.
	Exact Gate = "exact"
	// Ceiling rows are costs: the current value may not exceed
	// base×(1+tolerance) + grace.
	Ceiling Gate = "ceiling"
	// Floor rows are capacities: the current value may not fall below
	// max(0, base×(1−tolerance) − grace).
	Floor Gate = "floor"
	// Info rows are context and are never compared.
	Info Gate = "info"
)

// tolerance is the relative slack of the ceiling and floor gates.
const tolerance = 0.25

// Row is one line of a report.
type Row struct {
	Figure, Metric string
	Value          float64
	Unit           string
	Gate           Gate
}

// String renders the row as a report line. The value is written in its
// shortest round-tripping form, so exact rows read back bit for bit.
func (r Row) String() string {
	return fmt.Sprintf("%s %s %s %s %s", r.Figure, r.Metric,
		strconv.FormatFloat(r.Value, 'g', -1, 64), r.Unit, r.Gate)
}

// grace is the absolute slack a ceiling or floor adds to the relative
// tolerance, by unit: 0.5 µs for per-node slopes and 1 µs for
// latencies, so near-zero figures do not trip on rounding noise; none
// for counts, bytes and rates.
func grace(unit string) float64 {
	switch unit {
	case "us/node":
		return 0.5
	case "us", "us/hop":
		return 1
	}
	return 0
}

// limit is the bound a current value is held to when r is the
// baseline row.
func (r Row) limit() float64 {
	switch r.Gate {
	case Ceiling:
		return r.Value*(1+tolerance) + grace(r.Unit)
	case Floor:
		return math.Max(0, r.Value*(1-tolerance)-grace(r.Unit))
	}
	return r.Value
}

// WriteReport writes rows, all of one figure, to dir/BENCH_<figure>.txt
// and returns the path.
func WriteReport(dir string, rows []Row) (string, error) {
	if len(rows) == 0 {
		return "", errors.New("bench: empty report")
	}
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, "BENCH_"+rows[0].Figure+".txt")
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}

// readRows parses a report or baseline file. A malformed line, a
// non-finite value, an unknown gate or a repeated metric is an error.
func readRows(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []Row
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		r, err := parseRow(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		key := r.Figure + " " + r.Metric
		if seen[key] {
			return nil, fmt.Errorf("%s:%d: %s repeated", path, line, key)
		}
		seen[key] = true
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

func parseRow(s string) (Row, error) {
	f := strings.Fields(s)
	if len(f) != 5 {
		return Row{}, fmt.Errorf("want <figure> <metric> <value> <unit> <gate>, got %q", s)
	}
	v, err := strconv.ParseFloat(f[2], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return Row{}, fmt.Errorf("bad value %q", f[2])
	}
	r := Row{Figure: f[0], Metric: f[1], Value: v, Unit: f[3], Gate: Gate(f[4])}
	switch r.Gate {
	case Exact, Ceiling, Floor, Info:
		return r, nil
	}
	return Row{}, fmt.Errorf("unknown gate %q", f[4])
}

// Check holds every baseline baseDir/BENCH_<figure>.baseline.txt
// against its current report curDir/BENCH_<figure>.txt, writing one
// line per gated row to w. It reports false when a gate is breached,
// when a baseline row or a whole current report is missing, or when
// the current report has a gated row the baseline lacks. The baseline
// row's gate decides the comparison. A malformed file is an error.
func Check(w io.Writer, baseDir, curDir string) (bool, error) {
	bases, err := filepath.Glob(filepath.Join(baseDir, "BENCH_*.baseline.txt"))
	if err != nil {
		return false, err
	}
	if len(bases) == 0 {
		return false, fmt.Errorf("bench: no BENCH_*.baseline.txt in %s", baseDir)
	}
	ok := true
	for _, bp := range bases {
		fig := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(bp), "BENCH_"), ".baseline.txt")
		base, err := readRows(bp)
		if err != nil {
			return false, err
		}
		cp := filepath.Join(curDir, "BENCH_"+fig+".txt")
		cur, err := readRows(cp)
		if errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(w, "%s MISSING: no current report %s\n", fig, cp)
			ok = false
			continue
		}
		if err != nil {
			return false, err
		}
		ok = compare(w, base, cur) && ok
	}
	return ok, nil
}

// compare checks one figure's current rows against its baseline rows.
func compare(w io.Writer, base, cur []Row) bool {
	key := func(r Row) string { return r.Figure + " " + r.Metric }
	curByKey := make(map[string]Row, len(cur))
	for _, r := range cur {
		curByKey[key(r)] = r
	}
	inBase := make(map[string]bool, len(base))
	ok := true
	for _, b := range base {
		inBase[key(b)] = true
		if b.Gate == Info {
			continue
		}
		c, found := curByKey[key(b)]
		if !found {
			fmt.Fprintf(w, "%s MISSING from current report\n", key(b))
			ok = false
			continue
		}
		limit, status := b.limit(), "ok"
		switch {
		case b.Gate == Exact && c.Value != b.Value:
			status = "CHANGED"
		case b.Gate == Ceiling && c.Value > limit, b.Gate == Floor && c.Value < limit:
			status = "REGRESSED"
		}
		ok = ok && status == "ok"
		c.Gate = b.Gate
		fmt.Fprintf(w, "%s baseline %s limit %s %s\n", c,
			strconv.FormatFloat(b.Value, 'g', -1, 64), strconv.FormatFloat(limit, 'g', -1, 64), status)
	}
	for _, c := range cur {
		if c.Gate != Info && !inBase[key(c)] {
			fmt.Fprintf(w, "%s MISSING from baseline\n", key(c))
			ok = false
		}
	}
	return ok
}
