package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// This file implements historical trend rollups over a run ledger (or
// a BENCH_history file — same JSONL schema): per-experiment medians
// over the whole history for the headline series, with the latest run
// flagged when it sits outside the history's own noise band. The noise
// model is the one the regression gate already trusts (regress.go):
// robust centre via median, robust spread via MAD, and a relative
// floor so near-zero-variance series don't flag on measurement jitter.
// Where the gate compares one candidate ledger against one baseline,
// the trend report asks the longitudinal question — "is the newest run
// an outlier against everything we've ever recorded?" — which is what
// streamtrace -trend prints.

// Trend series labels, in render order; both come from the entry
// itself. Metrics that older entries carry (coverage.fastpath_pct from
// the retired bulk fast path, for one) are not trended.
const (
	trendWall   = "wall_ns"
	trendCycles = "sim_cycles_per_sec"
)

var trendSeriesOrder = [...]string{trendWall, trendCycles}

// TrendOptions tunes the anomaly flagging.
type TrendOptions struct {
	// MADFactor scales the MAD band: |latest-median| > MADFactor·MAD
	// flags, subject to the relative floor.
	MADFactor float64
	// MinRelative is the relative floor: deviations under
	// MinRelative·median never flag, however tight the MAD.
	MinRelative float64
	// MinRuns is the fewest runs a series needs before flagging; below
	// it there is no history to define "normal".
	MinRuns int
}

// DefaultTrendOptions mirrors the regression gate's noise model
// (GateOptions): MAD factor 4 over a 10% relative floor, and at least
// 4 runs of history.
func DefaultTrendOptions() TrendOptions {
	return TrendOptions{MADFactor: 4, MinRelative: 0.10, MinRuns: 4}
}

// TrendSeries is one metric's history within one experiment.
type TrendSeries struct {
	// Label names the series (wall_ns, sim_cycles_per_sec, ...).
	Label string `json:"label"`
	// Runs is how many entries carried this series.
	Runs int `json:"runs"`
	// Median and MAD summarise the full history (MAD already scaled to
	// σ-equivalent units, see regress.go).
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	// Latest is the newest entry's value.
	Latest float64 `json:"latest"`
	// Ratio is Latest/Median (1 when the median is zero).
	Ratio float64 `json:"ratio"`
	// Anomalous is true when Latest sits outside the noise band.
	Anomalous bool `json:"anomalous,omitempty"`
	// Direction is "high" or "low" when Anomalous.
	Direction string `json:"direction,omitempty"`
}

// TrendRow is one experiment's rollup.
type TrendRow struct {
	Experiment string `json:"experiment"`
	// Runs is the entry count for the experiment.
	Runs int `json:"runs"`
	// First and Last are the oldest/newest entry timestamps (as
	// recorded; empty when the writer didn't stamp them).
	First  string        `json:"first,omitempty"`
	Last   string        `json:"last,omitempty"`
	Series []TrendSeries `json:"series"`
	// Anomalous is true when any series flagged.
	Anomalous bool `json:"anomalous,omitempty"`
}

// trendValue extracts one series value from a ledger entry.
func trendValue(e *LedgerEntry, label string) (float64, bool) {
	switch label {
	case trendWall:
		return float64(e.WallNs), e.WallNs > 0
	default:
		return e.SimCyclesPerSec, e.SimCyclesPerSec > 0
	}
}

// TrendReport rolls entries (oldest first, as ReadJSONL returns them)
// up into one row per experiment, sorted by experiment name. The
// newest run of each series is compared against the history's median ±
// max(MinRelative·median, MADFactor·MAD); outside that band it is
// flagged with its direction.
func TrendReport(entries []LedgerEntry, opt TrendOptions) []TrendRow {
	if opt.MADFactor == 0 && opt.MinRelative == 0 && opt.MinRuns == 0 {
		opt = DefaultTrendOptions()
	}
	byExp := map[string][]*LedgerEntry{}
	for i := range entries {
		e := &entries[i]
		byExp[e.Experiment] = append(byExp[e.Experiment], e)
	}
	names := make([]string, 0, len(byExp))
	for name := range byExp {
		names = append(names, name)
	}
	sort.Strings(names)

	var rows []TrendRow
	for _, name := range names {
		es := byExp[name]
		row := TrendRow{
			Experiment: name,
			Runs:       len(es),
			First:      es[0].Time,
			Last:       es[len(es)-1].Time,
		}
		for _, label := range trendSeriesOrder {
			var xs []float64
			for _, e := range es {
				if v, ok := trendValue(e, label); ok {
					xs = append(xs, v)
				}
			}
			if len(xs) == 0 {
				continue
			}
			latest := xs[len(xs)-1] // before median sorts xs in place
			m := median(xs)
			s := TrendSeries{
				Label:  label,
				Runs:   len(xs),
				Median: m,
				MAD:    mad(xs, m),
				Latest: latest,
				Ratio:  1,
			}
			if m != 0 {
				s.Ratio = s.Latest / m
			}
			if len(xs) >= opt.MinRuns {
				band := math.Max(opt.MinRelative*math.Abs(m), opt.MADFactor*s.MAD)
				if dev := s.Latest - m; math.Abs(dev) > band {
					s.Anomalous = true
					row.Anomalous = true
					if dev > 0 {
						s.Direction = "high"
					} else {
						s.Direction = "low"
					}
				}
			}
			row.Series = append(row.Series, s)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTrend writes the rows as an aligned table, one line per
// series, anomalies marked with their direction.
func RenderTrend(w io.Writer, rows []TrendRow) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "trend: no entries")
		return
	}
	fmt.Fprintf(w, "%-24s %-22s %5s %14s %14s %7s %s\n",
		"experiment", "series", "runs", "median", "latest", "ratio", "flag")
	for _, row := range rows {
		for i, s := range row.Series {
			exp := ""
			if i == 0 {
				exp = row.Experiment
			}
			flag := ""
			if s.Anomalous {
				flag = "ANOMALY(" + s.Direction + ")"
			}
			fmt.Fprintf(w, "%-24s %-22s %5d %14.4g %14.4g %7.3f %s\n",
				exp, s.Label, s.Runs, s.Median, s.Latest, s.Ratio, flag)
		}
	}
}
