package perf

import "math"

// Verdicts of a comparison row.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Row compares one end-to-end metric of one workload between two reports.
type Row struct {
	Workload string
	Metric   Metric
	Base     Summary
	New      Summary
	Verdict  string
}

// Compare pairs every end-to-end metric of every workload present in both
// reports and judges it by the metric's bound.
func Compare(base, cur *Report) []Row {
	var rows []Row
	for _, nr := range cur.Results {
		br := base.Result(nr.Workload)
		if br == nil {
			continue
		}
		for _, m := range catalog {
			if m.Kind != EndToEnd {
				continue
			}
			b, okb := br.Metrics[m.Name]
			n, okn := nr.Metrics[m.Name]
			if okb && okn {
				rows = append(rows, Row{Workload: nr.Workload, Metric: m, Base: b, New: n, Verdict: verdict(m, b, n)})
			}
		}
	}
	return rows
}

// verdict judges one metric. Virtual metrics are exact, so any difference
// is a change. A host metric regresses when its median worsens by more
// than Bound×base median (+Floor). It is unresolved when either side's
// median is less certain than that tolerance, unless every new run beats
// every base run. The uncertainty of a median of n repetitions is taken
// as (Q3 - Q1)/√n — the standard error of a median, up to a factor near
// 1 — which estimates the spread between the medians of separate runs
// from one run's repetitions.
func verdict(m Metric, b, n Summary) string {
	sign := 1.0 // positive worse() means the new value is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := func(from, to float64) float64 { return sign * (to - from) }
	if m.Clock == Virtual {
		switch d := worse(b.Median, n.Median); {
		case d > 0:
			return Regressed
		case d < 0:
			return Improved
		}
		return Unchanged
	}
	allBetter := n.Max < b.Min
	if m.Better == "higher" {
		allBetter = n.Min > b.Max
	}
	tol := m.Bound*math.Abs(b.Median) + m.Floor
	if medianSpread(b) > tol || medianSpread(n) > tol {
		if allBetter {
			return Improved
		}
		return Unresolved
	}
	switch d := worse(b.Median, n.Median); {
	case d > tol:
		return Regressed
	case d < -tol:
		return Improved
	}
	return Unchanged
}

// medianSpread is the uncertainty of a summary's median (see verdict).
func medianSpread(s Summary) float64 {
	return (s.Q3 - s.Q1) / math.Sqrt(float64(max(s.Samples, 1)))
}
