package obs

import (
	"strings"
	"testing"
)

func runs(exp string, wallNs ...int64) []LedgerEntry {
	var out []LedgerEntry
	for _, w := range wallNs {
		out = append(out, LedgerEntry{Schema: LedgerSchema, Experiment: exp, WallNs: w})
	}
	return out
}

func TestGateFlagsTwentyPercentSlowdown(t *testing.T) {
	base := runs("fig5", 100, 101, 99)
	cur := runs("fig5", 120, 121, 119)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if !rep.Regressed {
		t.Fatalf("20%% slowdown not flagged: %+v", rep.Verdicts)
	}
}

func TestGatePassesIdenticalRerun(t *testing.T) {
	base := runs("fig5", 100, 102, 98)
	cur := runs("fig5", 101, 99, 103)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("identical re-run flagged: %+v", rep.Verdicts)
	}
}

func TestGateTolsJitterBelowFloor(t *testing.T) {
	// 8% slower is under the 10% floor even with a perfectly quiet
	// baseline.
	rep := CompareLedgers(runs("a", 100, 100, 100), runs("a", 108, 108, 108), DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("8%% delta flagged despite 10%% floor: %+v", rep.Verdicts)
	}
}

func TestGateCapStopsNoisyBaselineMasking(t *testing.T) {
	// A wildly noisy baseline must not stretch the threshold past
	// MaxRelative: a 25% regression still flags.
	base := runs("a", 100, 60, 140, 80, 130)
	bm := median(append([]float64(nil), 100, 60, 140, 80, 130))
	cur := runs("a", int64(bm*1.25), int64(bm*1.25), int64(bm*1.25))
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if !rep.Regressed {
		t.Fatalf("25%% regression masked by noisy baseline: %+v", rep.Verdicts)
	}
	if got := rep.Verdicts[0].Threshold; got > 1.18001 {
		t.Fatalf("threshold %v exceeds MaxRelative cap", got)
	}
}

func TestGateWidensWithNoise(t *testing.T) {
	// A moderately noisy baseline should tolerate more than the floor.
	base := runs("a", 100, 112, 90, 108, 95)
	opt := DefaultGateOptions()
	rep := CompareLedgers(base, runs("a", 100), opt)
	v := rep.Verdicts[0]
	if v.Threshold <= 1+opt.MinRelative {
		t.Fatalf("noisy baseline did not widen threshold: %+v", v)
	}
	if v.Threshold > 1+opt.MaxRelative {
		t.Fatalf("threshold exceeds cap: %+v", v)
	}
}

func TestGateSkipsThinEvidence(t *testing.T) {
	opt := DefaultGateOptions()
	opt.MinSamples = 3
	rep := CompareLedgers(runs("a", 100, 100, 100), runs("a", 200), opt)
	if rep.Regressed {
		t.Fatalf("verdict rendered on thin evidence: %+v", rep.Verdicts)
	}
	if !rep.Verdicts[0].Skipped {
		t.Fatalf("thin evidence not marked skipped: %+v", rep.Verdicts)
	}
}

func TestGateMedianRobustToOutlier(t *testing.T) {
	// One slow outlier among current runs must not flag the gate —
	// that's the whole point of the median.
	base := runs("a", 100, 100, 100)
	cur := runs("a", 100, 300, 101)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("single outlier flagged: %+v", rep.Verdicts)
	}
}

func TestGateRenderTable(t *testing.T) {
	rep := CompareLedgers(runs("fig5", 100), runs("fig5", 200), DefaultGateOptions())
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "fig5") {
		t.Fatalf("render missing verdict:\n%s", out)
	}
}

func runsWithMetrics(exp string, m map[string]float64, wallNs ...int64) []LedgerEntry {
	out := runs(exp, wallNs...)
	for i := range out {
		out[i].Metrics = m
	}
	return out
}

// Ledger rows written while the simulator had a bulk fast path carry
// coverage.fastpath_pct. No gate reads it any more, so even a collapse
// between two such rows renders no verdict.
func TestMetricGateIgnoresRetiredCoverageKey(t *testing.T) {
	base := runsWithMetrics("fig5", map[string]float64{"coverage.fastpath_pct": 96}, 100, 101)
	cur := runsWithMetrics("fig5", map[string]float64{"coverage.fastpath_pct": 30}, 100, 101)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("retired coverage key gated: %+v", rep.Verdicts)
	}
	for _, v := range rep.Verdicts {
		if strings.Contains(v.Experiment, "coverage.") {
			t.Fatalf("verdict on a retired key: %+v", v)
		}
	}
}

func TestMetricGateFlagsDRAMGrowth(t *testing.T) {
	base := runsWithMetrics("fig5", map[string]float64{"bw.dram.bytes": 1e6}, 100)
	cur := runsWithMetrics("fig5", map[string]float64{"bw.dram.bytes": 2e6}, 100)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if !rep.Regressed {
		t.Fatalf("2x DRAM traffic not flagged: %+v", rep.Verdicts)
	}
}

func TestMetricGateFlagsDRAMOccupancyGrowth(t *testing.T) {
	// Occupancy can regress without byte growth — e.g. row-buffer
	// locality lost, so the same bytes hold DRAM longer. The
	// occupied-cycles axis must flag independently.
	base := runsWithMetrics("fig5",
		map[string]float64{"bw.dram.bytes": 1e6, "bw.dram.cycles": 1e5}, 100)
	cur := runsWithMetrics("fig5",
		map[string]float64{"bw.dram.bytes": 1e6, "bw.dram.cycles": 2e5}, 100)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if !rep.Regressed {
		t.Fatalf("2x DRAM occupancy at flat bytes not flagged: %+v", rep.Verdicts)
	}
	for _, v := range rep.Verdicts {
		if strings.Contains(v.Experiment, "bw.dram.bytes") && v.Regressed {
			t.Fatalf("byte gate fired on flat bytes: %+v", v)
		}
	}
}

func TestMetricGatePassesCleanRerun(t *testing.T) {
	// Deterministic metrics compare at exactly ratio 1 on a clean
	// re-run — the gate must not false-positive.
	m := map[string]float64{
		"coverage.fastpath_pct": 96, "bw.dram.bytes": 1e6, "bw.dram.cycles": 1e5,
	}
	rep := CompareLedgers(runsWithMetrics("fig5", m, 100, 99),
		runsWithMetrics("fig5", m, 101, 100), DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("clean re-run flagged by metric gate: %+v", rep.Verdicts)
	}
	n := 0
	for _, v := range rep.Verdicts {
		if strings.Contains(v.Experiment, "[") {
			n++
			if v.Ratio != 1 {
				t.Errorf("deterministic metric ratio %v, want exactly 1: %+v", v.Ratio, v)
			}
		}
	}
	if n != 2 {
		t.Fatalf("expected 2 metric verdicts, got %d: %+v", n, rep.Verdicts)
	}
}

func TestMetricGateSkipsV1Baseline(t *testing.T) {
	// A baseline recorded before the coverage metrics existed produces
	// no metric verdicts at all — not skips, not failures.
	base := runs("fig5", 100, 101)
	cur := runsWithMetrics("fig5",
		map[string]float64{"coverage.fastpath_pct": 96, "bw.dram.bytes": 1e6}, 100, 101)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("v1 baseline flagged: %+v", rep.Verdicts)
	}
	for _, v := range rep.Verdicts {
		if strings.Contains(v.Experiment, "[") {
			t.Fatalf("metric verdict rendered against metric-less baseline: %+v", v)
		}
	}
}

func TestMetricGateSkipsZeroBaseline(t *testing.T) {
	base := runsWithMetrics("fig5", map[string]float64{"bw.dram.bytes": 0}, 100)
	cur := runsWithMetrics("fig5", map[string]float64{"bw.dram.bytes": 1e6}, 100)
	rep := CompareLedgers(base, cur, DefaultGateOptions())
	if rep.Regressed {
		t.Fatalf("zero baseline flagged: %+v", rep.Verdicts)
	}
	found := false
	for _, v := range rep.Verdicts {
		if strings.Contains(v.Experiment, "bw.dram.bytes") {
			found = true
			if !v.Skipped {
				t.Fatalf("zero baseline not skipped: %+v", v)
			}
		}
	}
	if !found {
		t.Fatal("zero-baseline metric verdict missing")
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
