package obs

import (
	"bytes"
	"strings"
	"testing"
)

// trendEntry builds one minimal ledger entry for trend tests.
func trendEntry(exp string, wallNs int64, cps, cov float64) LedgerEntry {
	return LedgerEntry{
		Schema:          LedgerSchema,
		Experiment:      exp,
		WallNs:          wallNs,
		SimCyclesPerSec: cps,
		Metrics:         map[string]float64{"coverage.fastpath_pct": cov},
	}
}

// A long steady history whose newest run jumps 3x must flag high; the
// steady series beside it must not.
func TestTrendAnomalyHigh(t *testing.T) {
	var entries []LedgerEntry
	wall := []int64{100, 102, 98, 101, 99, 100, 102, 98, 101, 300}
	for _, w := range wall {
		entries = append(entries, trendEntry("fig9", w, 50, 80))
	}
	rows := TrendReport(entries)
	if len(rows) != 1 || rows[0].Experiment != "fig9" || rows[0].Runs != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	if !rows[0].Anomalous {
		t.Fatal("3x wall-clock jump not flagged")
	}
	for _, s := range rows[0].Series {
		switch s.Label {
		case "wall_ns":
			if !s.Anomalous || s.Direction != "high" {
				t.Errorf("wall_ns = %+v, want anomalous high", s)
			}
			if s.Latest != 300 || s.Median != 100.5 {
				t.Errorf("wall_ns latest/median = %v/%v, want 300/100.5", s.Latest, s.Median)
			}
		default:
			if s.Anomalous {
				t.Errorf("steady series %s flagged: %+v", s.Label, s)
			}
		}
	}
}

// A drop flags with direction low.
func TestTrendAnomalyLow(t *testing.T) {
	var entries []LedgerEntry
	for _, c := range []float64{50, 51, 49, 50, 50, 10} {
		entries = append(entries, trendEntry("fem", 100, c, 80))
	}
	rows := TrendReport(entries)
	var found bool
	for _, s := range rows[0].Series {
		if s.Label == "sim_cycles_per_sec" {
			found = true
			if !s.Anomalous || s.Direction != "low" {
				t.Errorf("throughput collapse = %+v, want anomalous low", s)
			}
		}
	}
	if !found {
		t.Fatal("sim_cycles_per_sec series missing")
	}
}

// Under MinRuns of history there is no "normal" to deviate from: even
// a wild latest value must stay unflagged.
func TestTrendThinHistoryUnflagged(t *testing.T) {
	entries := []LedgerEntry{
		trendEntry("cdp", 100, 50, 80),
		trendEntry("cdp", 100, 50, 80),
		trendEntry("cdp", 900, 50, 80),
	}
	rows := TrendReport(entries)
	if rows[0].Anomalous {
		t.Errorf("flagged with only %d runs (MinRuns %d): %+v",
			rows[0].Runs, trendMinRuns, rows[0].Series)
	}
}

// Jitter inside the relative floor must not flag even when the MAD is
// zero (identical history makes any deviation infinitely many MADs).
func TestTrendRelativeFloor(t *testing.T) {
	var entries []LedgerEntry
	for i := 0; i < 8; i++ {
		entries = append(entries, trendEntry("micro", 1000, 50, 80))
	}
	entries = append(entries, trendEntry("micro", 1050, 50, 80)) // +5% < 10% floor
	rows := TrendReport(entries)
	for _, s := range rows[0].Series {
		if s.Label == "wall_ns" && s.Anomalous {
			t.Errorf("5%% jitter flagged despite 10%% relative floor: %+v", s)
		}
	}
}

// Entries missing a series (old schema, different tool) are skipped
// per-series, and experiments sort by name.
func TestTrendMissingSeriesAndOrder(t *testing.T) {
	entries := []LedgerEntry{
		{Schema: LedgerSchema, Experiment: "zeta", WallNs: 10},
		{Schema: LedgerSchema, Experiment: "alpha", WallNs: 20},
	}
	rows := TrendReport(entries)
	if len(rows) != 2 || rows[0].Experiment != "alpha" || rows[1].Experiment != "zeta" {
		t.Fatalf("rows out of order: %+v", rows)
	}
	for _, row := range rows {
		if len(row.Series) != 1 || row.Series[0].Label != "wall_ns" {
			t.Errorf("%s: series = %+v, want wall_ns only", row.Experiment, row.Series)
		}
	}
}

func TestRenderTrend(t *testing.T) {
	var entries []LedgerEntry
	for _, w := range []int64{100, 100, 100, 100, 400} {
		entries = append(entries, trendEntry("fig11", w, 50, 80))
	}
	var buf bytes.Buffer
	RenderTrend(&buf, TrendReport(entries))
	out := buf.String()
	for _, want := range []string{"fig11", "wall_ns", "ANOMALY(high)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	RenderTrend(&buf, nil)
	if !strings.Contains(buf.String(), "no entries") {
		t.Errorf("empty render = %q", buf.String())
	}
}

func TestMedianAndMAD(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := mad([]float64{1, 1, 1}, 1); m != 0 {
		t.Errorf("mad of constant = %v", m)
	}
}
