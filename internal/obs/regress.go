package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// This file implements the noise-aware performance-regression gate over
// run-ledger entries (ledger.go). Wall-clock on a shared machine is
// noisy, so the gate compares medians and widens its threshold by the
// baseline's own observed dispersion (median absolute deviation): a
// quiet baseline gets a tight gate, a noisy one a loose gate — bounded
// on both sides so a genuine ~20% slowdown always flags and ordinary
// jitter never does.

// GateOptions tunes the regression verdict.
type GateOptions struct {
	// MinRelative is the floor of the allowed slowdown: below this the
	// gate never fires, whatever the MAD says (sub-10% wall-clock
	// deltas are indistinguishable from scheduler noise at these run
	// lengths).
	MinRelative float64
	// MADFactor scales the baseline's relative MAD into the threshold:
	// allowed = 1 + max(MinRelative, MADFactor·MAD/median).
	MADFactor float64
	// MaxRelative caps the allowed slowdown so a pathologically noisy
	// baseline cannot mask a real regression.
	MaxRelative float64
	// MinSamples is how many runs an experiment needs on each side
	// before a verdict is rendered; thinner evidence yields a skipped
	// verdict, never a failure.
	MinSamples int
	// Metrics gates deterministic ledger metrics alongside the noisy
	// wall-clock gate. A metric verdict is skipped — never failed —
	// when either side lacks the key, so pre-coverage (schema v1)
	// baselines remain comparable.
	Metrics []MetricGate
}

// MetricGate bounds the current/baseline ratio of one flattened ledger
// metric (LedgerEntry.Metrics[Key]) per experiment. Metrics from the
// simulator are deterministic, so unlike the wall-clock gate these
// thresholds need no noise model: a clean re-run compares at exactly
// ratio 1. A zero bound disables that side.
type MetricGate struct {
	Key      string  // flattened metric key, e.g. "bw.dram.bytes"
	MaxRatio float64 // fire when current/baseline > MaxRatio (0: unbounded)
	MinRatio float64 // fire when current/baseline < MinRatio (0: unbounded)
}

// DefaultGateOptions returns the tuning used by streambench -compare:
// flag ≥ ~18% median slowdowns always, tolerate ≤ 10% always. Two
// metric gates ride along, each evaluated per experiment: DRAM traffic
// may not grow past 1.5× (the simulator is bandwidth-bound, so a traffic blow-up is
// a latent slowdown even if wall-clock noise hides it), and DRAM
// occupied cycles may not grow past 1.5× either — occupancy can blow
// up without byte growth (row-buffer locality lost, accesses
// de-coalesced), so the bandwidth-attribution gate needs both axes.
func DefaultGateOptions() GateOptions {
	return GateOptions{
		MinRelative: 0.10, MADFactor: 4, MaxRelative: 0.18, MinSamples: 1,
		Metrics: []MetricGate{
			{Key: "bw.dram.bytes", MaxRatio: 1.5},
			{Key: "bw.dram.cycles", MaxRatio: 1.5},
		},
	}
}

// Verdict is the gate's per-experiment conclusion.
type Verdict struct {
	Experiment     string
	BaselineMedian float64 // ns
	CurrentMedian  float64 // ns
	BaselineRuns   int
	CurrentRuns    int
	Ratio          float64 // current / baseline
	Threshold      float64 // ratio above which the gate fires
	Regressed      bool
	Skipped        bool   // not enough evidence on one side
	Note           string // human-readable explanation
}

// GateReport is the gate's full output.
type GateReport struct {
	Verdicts  []Verdict
	Regressed bool // any verdict regressed
}

// median returns the middle of xs (mean of the middle two when even).
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mad returns the median absolute deviation of xs about m, scaled by
// 1.4826 so it estimates a standard deviation under normal noise.
func mad(xs []float64, m float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - m)
	}
	return 1.4826 * median(devs)
}

// wallByExperiment groups entries' wall-clock samples by experiment.
func wallByExperiment(entries []LedgerEntry) map[string][]float64 {
	out := map[string][]float64{}
	for _, e := range entries {
		if e.WallNs > 0 {
			out[e.Experiment] = append(out[e.Experiment], float64(e.WallNs))
		}
	}
	return out
}

// metricByExperiment groups one metric's samples by experiment,
// including only entries that carry the key.
func metricByExperiment(entries []LedgerEntry, key string) map[string][]float64 {
	out := map[string][]float64{}
	for _, e := range entries {
		if v, ok := e.Metrics[key]; ok {
			out[e.Experiment] = append(out[e.Experiment], v)
		}
	}
	return out
}

// gateMetric renders one experiment's verdict for one metric gate.
// Experiments where either side lacks the key are silently absent from
// the report (no verdict at all, not even a skip): v1 baselines would
// otherwise drown the table in skip rows.
func gateMetric(name string, g MetricGate, base, cur []float64) (Verdict, bool) {
	if len(base) == 0 || len(cur) == 0 {
		return Verdict{}, false
	}
	v := Verdict{
		Experiment:   name + " [" + g.Key + "]",
		BaselineRuns: len(base), CurrentRuns: len(cur),
		BaselineMedian: median(base), CurrentMedian: median(cur),
	}
	if v.BaselineMedian == 0 {
		// Ratio is undefined; a deterministic metric moving off zero is
		// worth a visible skip (unlike a missing key).
		v.Skipped = true
		v.Note = fmt.Sprintf("baseline %s is zero", g.Key)
		return v, true
	}
	v.Ratio = v.CurrentMedian / v.BaselineMedian
	switch {
	case g.MaxRatio > 0 && v.Ratio > g.MaxRatio:
		v.Threshold = g.MaxRatio
		v.Regressed = true
		v.Note = fmt.Sprintf("%s grew %.2fx (allowed %.2fx)", g.Key, v.Ratio, g.MaxRatio)
	case g.MinRatio > 0 && v.Ratio < g.MinRatio:
		v.Threshold = g.MinRatio
		v.Regressed = true
		v.Note = fmt.Sprintf("%s fell to %.2fx of baseline (floor %.2fx)", g.Key, v.Ratio, g.MinRatio)
	default:
		v.Threshold = g.MaxRatio
		if v.Threshold == 0 {
			v.Threshold = g.MinRatio
		}
		v.Note = fmt.Sprintf("%s steady (%.2fx)", g.Key, v.Ratio)
	}
	return v, true
}

// CompareLedgers gates current against baseline, one verdict per
// experiment present in the baseline (experiments new in current have
// nothing to regress against and are ignored), followed by one verdict
// per (experiment, metric gate) pair where both sides recorded the
// metric. Verdicts come out in experiment-name order.
func CompareLedgers(baseline, current []LedgerEntry, opt GateOptions) GateReport {
	if opt.MinSamples < 1 {
		opt.MinSamples = 1
	}
	base := wallByExperiment(baseline)
	cur := wallByExperiment(current)
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var rep GateReport
	for _, name := range names {
		b, c := base[name], cur[name]
		v := Verdict{Experiment: name, BaselineRuns: len(b), CurrentRuns: len(c)}
		if len(b) < opt.MinSamples || len(c) < opt.MinSamples {
			v.Skipped = true
			v.Note = fmt.Sprintf("insufficient samples (baseline %d, current %d, need %d)",
				len(b), len(c), opt.MinSamples)
			rep.Verdicts = append(rep.Verdicts, v)
			continue
		}
		bm := median(b)
		v.BaselineMedian = bm
		v.CurrentMedian = median(c)
		if bm <= 0 {
			v.Skipped = true
			v.Note = "baseline median is zero"
			rep.Verdicts = append(rep.Verdicts, v)
			continue
		}
		rel := opt.MADFactor * mad(b, bm) / bm
		if rel < opt.MinRelative {
			rel = opt.MinRelative
		}
		if rel > opt.MaxRelative {
			rel = opt.MaxRelative
		}
		v.Threshold = 1 + rel
		v.Ratio = v.CurrentMedian / bm
		v.Regressed = v.Ratio > v.Threshold
		switch {
		case v.Regressed:
			v.Note = fmt.Sprintf("%.0f%% slower than baseline (allowed %.0f%%)",
				100*(v.Ratio-1), 100*(v.Threshold-1))
			rep.Regressed = true
		case v.Ratio < 1:
			v.Note = fmt.Sprintf("%.0f%% faster", 100*(1-v.Ratio))
		default:
			v.Note = fmt.Sprintf("within noise (+%.0f%% ≤ %.0f%%)",
				100*(v.Ratio-1), 100*(v.Threshold-1))
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	for _, g := range opt.Metrics {
		mbase := metricByExperiment(baseline, g.Key)
		mcur := metricByExperiment(current, g.Key)
		for _, name := range names {
			if v, ok := gateMetric(name, g, mbase[name], mcur[name]); ok {
				rep.Verdicts = append(rep.Verdicts, v)
				if v.Regressed {
					rep.Regressed = true
				}
			}
		}
	}
	return rep
}

// Render writes the verdict table.
func (rep GateReport) Render(w io.Writer) {
	width := len("experiment")
	for _, v := range rep.Verdicts {
		if len(v.Experiment) > width {
			width = len(v.Experiment)
		}
	}
	fmt.Fprintf(w, "%-*s  %12s  %12s  %7s  %7s  %-4s  %s\n",
		width, "experiment", "baseline", "current", "ratio", "allowed", "ok", "note")
	for _, v := range rep.Verdicts {
		if v.Skipped {
			fmt.Fprintf(w, "%-*s  %12s  %12s  %7s  %7s  %-4s  %s\n",
				width, v.Experiment, "-", "-", "-", "-", "skip", v.Note)
			continue
		}
		ok := "PASS"
		if v.Regressed {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%-*s  %12.0f  %12.0f  %7.3f  %7.3f  %-4s  %s\n",
			width, v.Experiment, v.BaselineMedian, v.CurrentMedian, v.Ratio, v.Threshold, ok, v.Note)
	}
}
