// Command streambench regenerates the figures of "Stream Programming
// on General-Purpose Processors" (MICRO 2005) on the simulated Pentium
// 4 testbed.
//
// Usage:
//
//	streambench -list
//	streambench -exp fig9
//	streambench -exp all -quick -parallel 8
//	streambench -exp quickstart -quick -ledger BENCH_history.jsonl
//	streambench -exp quickstart -quick -compare baseline.jsonl
//	streambench -validate BENCH_history.jsonl
//
// With -ledger, every experiment appends one JSONL entry — wall-clock,
// simulated cycles, metrics snapshot, config and commit — to the named
// run ledger. With -compare, the run's wall-clock medians are gated
// against a baseline ledger by the noise-aware regression gate; a
// confirmed regression renders a verdict table and exits non-zero.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"streamgpp/internal/bench"
	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig5, fig6, fig8, fig9, fig11a..fig11d, stalls, quickstart) or 'all'")
	quick := flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines across experiments and table rows (output is byte-identical at any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	faultSpec := flag.String("fault", "", "fault injection spec: kind:rate[,kind:rate...] or all:rate")
	faultSeed := flag.Uint64("faultseed", 1, "fault schedule seed (same seed replays the identical fault trace)")
	ledgerPath := flag.String("ledger", "", "append one run-ledger JSONL entry per experiment to this file")
	compare := flag.String("compare", "", "baseline run-ledger JSONL: gate this run's wall-clock against it (exit 3 on regression)")
	repeat := flag.Int("repeat", 3, "timed repetitions per experiment in -ledger/-compare mode")
	validate := flag.String("validate", "", "validate the run-ledger file at this path and exit")
	whatif := flag.String("whatif", "",
		"what-if scenarios over the quickstart workload, e.g. 'ident,dram=0.5,kernel=1.25,strip=0.5,1ctx': predict each analytically on the frozen task DAG, re-run the simulator with the knob changed, and cross-check (exit 3 on disagreement)")
	slowdown := flag.Float64("slowdown", 1.0, "multiply recorded wall-clock by this factor (regression-gate self-test)")
	commit := flag.String("commit", "", "commit id to record in ledger entries (e.g. git describe --always)")
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "streambench: %v\n", err)
		os.Exit(1)
	}

	if *validate != "" {
		_, stats, err := obs.ReadJSONL[obs.LedgerEntry](*validate)
		if err != nil {
			fatal(err)
		}
		if stats.TornTail {
			fmt.Printf("%s: warning: torn final line %d skipped (crashed writer)\n", *validate, stats.TornLine)
		}
		fmt.Printf("%s: %d ledger entries, schema v%d, all valid\n", *validate, stats.Records, obs.LedgerSchema)
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		for _, e := range bench.ExtraExperiments() {
			fmt.Printf("%-10s %s  (not part of 'all')\n", e.ID, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *parallel > 0 {
		bench.Parallelism = *parallel
	}

	// Fault injection arms a per-row injector in the bench runner: every
	// table row derives its own seed from (-faultseed, row key), so the
	// fault schedule each row sees is independent of goroutine draw order
	// and the experiment runner keeps its full parallelism (PR 3 had to
	// force -parallel 1 here when a single global injector was shared).
	faultArmed := *faultSpec != ""
	if faultArmed {
		fcfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streambench: %v\n", err)
			os.Exit(2)
		}
		fcfg.Seed = *faultSeed
		bench.SetFaultConfig(&fcfg)
		defer bench.SetFaultConfig(nil)
	}

	m := sim.MustNew(sim.PentiumD8300())
	fmt.Println(m.Describe())
	fmt.Println()

	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "streambench: %s: %v\n", id, err)
		if rep := bench.FaultReport(); rep != "" {
			fmt.Fprintf(os.Stderr, "fault state at failure (replay with -faultseed %d):\n%s", *faultSeed, rep)
		}
		os.Exit(1)
	}

	if *whatif != "" {
		runWhatIf(*whatif, *quick, *ledgerPath, *commit, m.Describe(), fatal)
		return
	}

	if *ledgerPath != "" || *compare != "" {
		runMeasured(measureOpts{
			exp: *exp, quick: *quick, repeat: *repeat, slowdown: *slowdown,
			ledger: *ledgerPath, compare: *compare, commit: *commit,
			machineDesc: m.Describe(), fail: fail, fatal: fatal,
		})
		return
	}

	if *exp == "all" {
		if err := bench.RunAll(os.Stdout, *quick); err != nil {
			fail("all", err)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "streambench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			if err := e.Run(os.Stdout, *quick); err != nil {
				fail(e.ID, err)
			}
		}
	}

	if faultArmed {
		if rep := bench.FaultReport(); rep != "" {
			fmt.Printf("\n%s", rep)
		} else {
			fmt.Printf("\nfault injection armed (base seed %d) but no experiment row drew\n", *faultSeed)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// runWhatIf is the -whatif mode: cross-checked counterfactuals over
// the quickstart workload, with one ledger entry per scenario when
// -ledger is given. A gated scenario whose analytical and empirical
// deltas disagree exits 3, like the regression gate.
func runWhatIf(spec string, quick bool, ledgerPath, commit, machineDesc string, fatal func(error)) {
	specs, err := bench.ParseWhatIf(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "streambench: %v\n", err)
		os.Exit(2)
	}
	t0 := time.Now()
	res, err := bench.RunWhatIf(os.Stdout, quick, specs)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(t0).Nanoseconds()

	if ledgerPath != "" {
		var entries []obs.LedgerEntry
		for _, r := range res.Rows {
			verdict := "pass"
			switch {
			case !r.Gated:
				verdict = "info"
			case !r.Pass:
				verdict = "fail"
			}
			entry := obs.LedgerEntry{
				Schema:     obs.LedgerSchema,
				Time:       time.Now().UTC().Format(time.RFC3339),
				Experiment: "whatif/quickstart/" + r.Scenario,
				Config:     machineDesc,
				ConfigHash: obs.Hash(machineDesc, fmt.Sprintf("quick=%v", quick), r.Scenario),
				Commit:     commit,
				Quick:      quick,
				WallNs:     wall,
				SimCycles:  r.Empirical,
				Source:     "streambench",
				Metrics: map[string]float64{
					"whatif.baseline_cycles":   float64(r.Baseline),
					"whatif.analytical_cycles": float64(r.Analytical),
					"whatif.empirical_cycles":  float64(r.Empirical),
					"whatif.analytical_delta":  r.AnalyticalDelta,
					"whatif.empirical_delta":   r.EmpiricalDelta,
					"whatif.diff":              r.Diff,
				},
				Extra: map[string]string{
					"whatif_scenario":  r.Scenario,
					"whatif_verdict":   verdict,
					"whatif_derived":   fmt.Sprintf("%v", r.Derived),
					"whatif_tolerance": fmt.Sprintf("%g", res.Tolerance),
				},
			}
			entries = append(entries, entry)
		}
		if err := obs.AppendJSONL(ledgerPath, entries...); err != nil {
			fatal(err)
		}
		fmt.Printf("\nappended %d ledger entries to %s\n", len(entries), ledgerPath)
	}

	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "streambench: %d what-if scenario(s) disagree beyond the %.0f%% tolerance\n",
			res.Failed, 100*res.Tolerance)
		os.Exit(3)
	}
}

// measureOpts parameterises a -ledger/-compare run.
type measureOpts struct {
	exp         string
	quick       bool
	repeat      int
	slowdown    float64
	ledger      string
	compare     string
	commit      string
	machineDesc string
	fail        func(id string, err error)
	fatal       func(err error)
}

// selectExperiments resolves the -exp value to concrete experiments.
func selectExperiments(expFlag string) ([]bench.Experiment, error) {
	if expFlag == "all" {
		return bench.Experiments(), nil
	}
	var out []bench.Experiment
	for _, id := range strings.Split(expFlag, ",") {
		e, ok := bench.ByID(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// runMeasured is the -ledger/-compare mode: each experiment runs
// repeat times under wall-clock timing with a shared metrics registry,
// producing ledger entries that are appended (-ledger) and/or gated
// against a baseline (-compare).
func runMeasured(o measureOpts) {
	exps, err := selectExperiments(o.exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "streambench: %v\n", err)
		os.Exit(2)
	}
	if o.repeat < 1 {
		o.repeat = 1
	}

	// One registry for all machines: per-experiment metrics come out as
	// snapshot deltas, which needs the experiments to run sequentially.
	reg := obs.NewRegistry()
	sim.SetDefaultObserver(reg)
	defer sim.SetDefaultObserver(nil)

	var entries []obs.LedgerEntry
	for _, e := range exps {
		// One untimed warm-up run per experiment keeps one-off costs —
		// page faults, allocator growth, branch warm-up — out of the
		// timed samples; without it the baseline session reads slower
		// than any later session and the gate's thresholds skew.
		if err := e.Run(io.Discard, o.quick); err != nil {
			o.fail(e.ID, err)
		}
		for rep := 0; rep < o.repeat; rep++ {
			var buf bytes.Buffer
			w := io.Writer(&buf)
			if rep == 0 {
				// The paper tables print once; repetitions are timing-only
				// (their output is byte-identical by construction).
				w = io.MultiWriter(os.Stdout, &buf)
			}
			pre := reg.Snapshot()
			t0 := time.Now()
			runErr := e.Run(w, o.quick)
			wall := time.Since(t0).Nanoseconds()
			if runErr != nil {
				o.fail(e.ID, runErr)
			}
			delta := reg.Snapshot().Delta(pre)
			wall = int64(float64(wall) * o.slowdown)
			simCycles := uint64(delta["sim.run_cycles_total"].Value)
			entry := obs.LedgerEntry{
				Schema:     obs.LedgerSchema,
				Time:       time.Now().UTC().Format(time.RFC3339),
				Experiment: e.ID,
				Config:     o.machineDesc,
				ConfigHash: obs.Hash(o.machineDesc, fmt.Sprintf("quick=%v", o.quick)),
				Commit:     o.commit,
				Quick:      o.quick,
				Parallel:   bench.Parallelism,
				WallNs:     wall,
				SimCycles:  simCycles,
				OutputHash: obs.Hash(buf.String()),
				Metrics:    obs.FlattenSnapshot(delta),
				Source:     "streambench",
			}
			if wall > 0 {
				entry.SimCyclesPerSec = float64(simCycles) / (float64(wall) / 1e9)
			}
			entries = append(entries, entry)
		}
	}

	if o.ledger != "" {
		if err := obs.AppendJSONL(o.ledger, entries...); err != nil {
			o.fatal(err)
		}
		fmt.Printf("\nappended %d ledger entries to %s\n", len(entries), o.ledger)
	}

	if o.compare != "" {
		baseline, _, err := obs.ReadJSONL[obs.LedgerEntry](o.compare)
		if err != nil {
			o.fatal(err)
		}
		rep := obs.CompareLedgers(baseline, entries, obs.DefaultGateOptions())
		fmt.Printf("\nregression gate vs %s (%d baseline entries, %d current runs):\n",
			o.compare, len(baseline), len(entries))
		rep.Render(os.Stdout)
		if rep.Regressed {
			fmt.Fprintln(os.Stderr, "streambench: performance regression detected")
			os.Exit(3)
		}
		fmt.Println("no regression detected")
	}
}
