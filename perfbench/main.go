// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints every metric by name and unit, with a JSON
// summary as the last line of standard output:
//
//	go run . --workload irregular --seed 1 --seconds 30 --trace 0
//
// Workloads: irregular and streaming run simulator bundles (build,
// compile, regular and stream runs, output check), then short
// closed-loop streamd segments; service runs streamd alone across
// server restarts. --trace 1 reruns the workload with spans, the metrics
// registry and a labelled CPU profile on, and prints the per-layer
// metrics instead. --repeat N runs the workload N times with
// successive seeds in child processes and prints each metric's median,
// quartiles and spread. METRICS.md defines every metric.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workload is one named input set.
type workload struct {
	name string
	// bundle returns the simulator apps to run, nil for none.
	bundle func(seed int64) []appSpec
	// iterSeconds is the nominal host time of one bundle iteration on a
	// 2-vCPU x86-64 host; with --seconds it fixes the iteration count.
	iterSeconds float64
	mix         serviceMix
	// segSeconds is the nominal host time of one service segment.
	segSeconds float64
}

var workloads = []workload{
	{
		name: "irregular", bundle: irregularBundle, iterSeconds: 3.3,
		mix: serviceMix{segments: 8, jobsPerClient: 300, missApps: []string{"GAT-SCAT-COMP"}, missN: 4000},
	},
	{
		name: "streaming", bundle: streamingBundle, iterSeconds: 0.56,
		mix: serviceMix{segments: 8, jobsPerClient: 300, missApps: []string{"LD-ST-COMP"}, missN: 8000},
	},
	{
		name: "service", segSeconds: 3,
		mix: serviceMix{restarts: 5, jobsPerClient: 750, missApps: hitApps, missN: 8000},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bundleShare is the part of --seconds a bundle workload gives its
// bundle; the streamd segments take the rest.
const bundleShare = 0.7

// size fixes the work of one pass from the --seconds budget: a
// deterministic function of the flag, never of measured time.
func (w workload) size(seconds float64) (iters int, mx serviceMix) {
	mx = w.mix
	if w.bundle != nil {
		iters = int(math.Round(seconds * bundleShare / w.iterSeconds))
		if iters < 3 {
			iters = 3
		}
	}
	if mx.segments == 0 {
		mx.segments = int(math.Round(seconds / w.segSeconds))
		if mx.segments < 3 {
			mx.segments = 3
		}
	}
	return iters, mx
}

// pass is one run of a workload.
type pass struct {
	bundle  bundleResult
	service serviceResult
	prof    profSummary
	spans   []span
}

// typical is the host time of a median bundle iteration plus a median
// service segment, from per-call and per-segment medians so a cold
// first iteration or a burst of host load does not decide it.
func (p pass) typical() float64 {
	return p.bundle.seconds("apps.build", "compiler.compile", "exec.regular", "exec.stream", "apps.verify") +
		median(p.service.segSeconds)
}

func (p pass) attempted() int { return p.bundle.attempted + p.service.attempted }
func (p pass) failed() int    { return p.bundle.failed + p.service.failed }
func (p pass) failures() []string {
	return append(append([]string(nil), p.bundle.failures...), p.service.failures...)
}

func runPass(w workload, seed int64, iters int, mx serviceMix, traced bool, workDir string) (pass, error) {
	var p pass
	tr := newTracer(traced)
	ctx := context.Background()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return p, fmt.Errorf("perfbench: cpu profile: %w", err)
		}
	}
	dir := filepath.Join(workDir, fmt.Sprintf("service-%d-%v", os.Getpid(), traced))
	defer os.RemoveAll(dir)
	if w.bundle != nil {
		br := newBundleRunner(ctx, tr, w.bundle(seed))
		for it := 0; it < iters; it++ {
			br.iteration(it)
		}
		p.bundle = br.res
	}
	sr, err := newServiceRunner(ctx, tr, mx, seed, dir)
	if err == nil {
		for seg := 0; seg < mx.segments && err == nil; seg++ {
			err = sr.segment(seg)
		}
		sr.close()
		p.service = sr.res
	}
	if traced {
		pprof.StopCPUProfile()
		samples, perr := parseProfile(&prof)
		if perr != nil && err == nil {
			err = perr
		}
		p.prof = summarize(samples)
		p.spans = tr.spans
	}
	return p, err
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// latencies splits the timed jobs by the X-Streamd-Cache header. A
// failed job counts in both classes as missing every limit.
func latencies(samples []sample) (hit, miss []float64) {
	for _, s := range samples {
		switch {
		case s.failed:
			hit = append(hit, math.Inf(1))
			miss = append(miss, math.Inf(1))
		case s.hit:
			hit = append(hit, ms(s.latency))
		default:
			miss = append(miss, ms(s.latency))
		}
	}
	return hit, miss
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(w workload, p pass) (map[string]metric, error) {
	m := map[string]metric{}
	var errs []error
	// pct takes the q-quantile of each sample set and reports their
	// median, refusing any set with fewer than minTail samples beyond.
	pct := func(name string, sets [][]float64, q float64) {
		var vs []float64
		total := 0
		for _, xs := range sets {
			v, n, ok := percentile(xs, q)
			if !ok {
				errs = append(errs, fmt.Errorf("%s: %d samples leave fewer than %d beyond the %.0fth percentile", name, n, minTail, 100*q))
			}
			vs = append(vs, v)
			total += n
		}
		fmt.Fprintf(os.Stderr, "  %s: median of %d set(s), %d samples\n", name, len(sets), total)
		m[name] = metric{median(vs), "ms"}
	}
	s := p.service
	if w.bundle != nil {
		b := p.bundle
		m["setup_s"] = metric{b.seconds("apps.build", "compiler.compile"), "s"}
		m["sim_mcycles_per_s"] = metric{float64(b.cycles) / 1e6 / b.seconds("exec.regular", "exec.stream"), "Mcycle/s"}
	} else {
		m["setup_s"] = metric{median(s.setup), "s"}
		m["sim_mcycles_per_s"] = metric{float64(s.freshSimCycles) / 1e6 / (s.runMs / 1000), "Mcycle/s"}
	}
	m["jobs_per_s"] = metric{median(s.jobsPerSec), "1/s"}
	_, miss := latencies(s.samples)
	pct("hit_p50_ms", s.segHit, 0.50)
	pct("hit_p90_ms", s.segHit, 0.90)
	pct("miss_p50_ms", [][]float64{miss}, 0.50)
	pct("miss_p95_ms", [][]float64{miss}, 0.95)
	m["heap_live_mb"] = metric{float64(s.heapLiveBytes) / 1e6, "MB"}
	m["heap_peak_mb"] = metric{max(median(p.bundle.heapPeaks), median(s.heapPeaks)) / 1e6, "MB"}
	return m, errors.Join(errs...)
}

// layer is one per-layer metric and what it should move.
type layer struct {
	name, unit, moves, on string
}

var layers = []layer{
	{"apps.build_ms", "ms", "setup_s", "irregular, streaming"},
	{"compiler.compile_ms", "ms", "setup_s", "irregular, streaming"},
	{"exec.regular_ms", "ms", "sim_mcycles_per_s", "irregular, streaming"},
	{"exec.stream_ms", "ms", "sim_mcycles_per_s", "irregular, streaming"},
	{"apps.verify_ms", "ms", "sim_mcycles_per_s", "irregular, streaming"},
	{"exec.regular_ns_per_access", "ns", "sim_mcycles_per_s", "irregular most"},
	{"exec.stream_ns_per_access", "ns", "sim_mcycles_per_s", "irregular most"},
	{"sim.tlb.ns_per_translate", "ns", "sim_mcycles_per_s", "irregular"},
	{"prof.sim_tlb_pct", "%", "sim_mcycles_per_s", "irregular"},
	{"sim.tlb.miss_pct", "%", "sim_mcycles_per_s", "irregular"},
	{"sim.cache.ns_per_access", "ns", "sim_mcycles_per_s", "streaming, irregular"},
	{"prof.sim_cache_pct", "%", "sim_mcycles_per_s", "streaming, irregular"},
	{"sim.dram_mb", "MB", "sim_mcycles_per_s", "streaming, irregular"},
	{"prof.sim_engine_pct", "%", "sim_mcycles_per_s", "streaming"},
	{"exec.stream_us_per_task", "us", "sim_mcycles_per_s", "streaming"},
	{"wq.tasks", "count", "sim_mcycles_per_s", "streaming"},
	{"svm.gather_elems", "count", "sim_mcycles_per_s", "irregular, streaming"},
	{"svm.scatter_elems", "count", "sim_mcycles_per_s", "irregular, streaming"},
	{"svm.indexed_pct", "%", "sim_mcycles_per_s", "irregular vs streaming"},
	{"prof.svm_pct", "%", "sim_mcycles_per_s", "irregular, streaming"},
	{"prof.gc_pct", "%", "heap_peak_mb, sim_mcycles_per_s", "all"},
	{"sim.accesses", "count", "sim_mcycles_per_s", "all"},
	{"http.submit_ms", "ms", "hit_p50_ms, jobs_per_s", "service"},
	{"http.result_hit_ms", "ms", "hit_p50_ms, hit_p90_ms", "service"},
	{"http.result_hit_p99_ms", "ms", "hit_p90_ms", "service"},
	{"streamd.cache_hit_pct", "%", "jobs_per_s", "service"},
	{"http.result_miss_ms", "ms", "miss_p50_ms, miss_p95_ms", "service"},
	{"streamd.queue_wait_ms", "ms", "miss_p50_ms, miss_p95_ms", "service"},
	{"streamd.run_ms", "ms", "miss_p50_ms, miss_p95_ms", "service"},
	{"streamd.heap_kb_per_job", "KB", "heap_live_mb, heap_peak_mb", "service"},
	{"streamd.durable_kb_per_job", "KB", "miss_p50_ms, setup_s", "service"},
	{"streamd.restart_events_mb", "MB", "setup_s", "service"},
	{"obs.metricz_scrape_ms", "ms", "hit_p90_ms", "service"},
	{"trace_overhead_pct", "%", "(traced vs untraced pass)", "all"},
	{"failed_pct", "%", "(must stay 0)", "all"},
}

// optionalLayers exist only while the simulator publishes a fast-path
// coverage counter; they are printed but not part of the JSON summary.
var optionalLayers = []layer{
	{"sim.fastpath_pct", "%", "sim_mcycles_per_s", "streaming"},
	{"prof.sim_bulk_pct", "%", "sim_mcycles_per_s", "streaming"},
}

// perLayer computes the per-layer metrics of a traced pass, given the
// untraced pass of the same work for the tracing overhead.
func perLayer(traced, plain pass) (map[string]float64, map[string]float64) {
	out := map[string]float64{}
	opt := map[string]float64{}
	b, s, ps := traced.bundle, traced.service, traced.prof
	col := func(key string) []float64 {
		xs := make([]float64, len(b.layers))
		for i, l := range b.layers {
			xs[i] = l[key]
		}
		return xs
	}
	sum := func(key string) float64 {
		var t float64
		for _, l := range b.layers {
			t += l[key]
		}
		return t
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, k := range []string{"apps.build_ms", "compiler.compile_ms", "exec.regular_ms", "exec.stream_ms", "apps.verify_ms", "wq.tasks"} {
		out[k] = median(col(k))
	}
	out["exec.regular_ns_per_access"] = div(sum("exec.regular_ms")*1e6, sum("reg.accesses"))
	out["exec.stream_ns_per_access"] = div(sum("exec.stream_ms")*1e6, sum("str.accesses"))
	execNs := func(cat string) float64 {
		var t int64
		for _, sp := range []string{"exec.regular", "exec.stream"} {
			t += ps.bySpan[sp][cat]
		}
		return float64(t)
	}
	out["sim.tlb.ns_per_translate"] = div(execNs(catTLB), sum("tlb.translations"))
	out["prof.sim_tlb_pct"] = ps.pct(catTLB)
	out["sim.tlb.miss_pct"] = 100 * div(sum("tlb.misses"), sum("tlb.translations"))
	out["sim.cache.ns_per_access"] = div(execNs(catCache), sum("cache.accesses"))
	out["prof.sim_cache_pct"] = ps.pct(catCache)
	out["sim.dram_mb"] = median(col("dram.bytes")) / 1e6
	out["prof.sim_engine_pct"] = ps.pct(catEngine)
	out["exec.stream_us_per_task"] = div(sum("exec.stream_ms")*1e3, sum("wq.tasks"))
	out["svm.gather_elems"] = median(col("svm.gather.elems"))
	out["svm.scatter_elems"] = median(col("svm.scatter.elems"))
	out["svm.indexed_pct"] = 100 * div(sum("svm.gather.indexed_elems")+sum("svm.scatter.indexed_elems"),
		sum("svm.gather.elems")+sum("svm.scatter.elems"))
	out["prof.svm_pct"] = ps.pct(catSVM)
	out["prof.gc_pct"] = ps.pct(catGC)
	accesses := make([]float64, len(b.layers))
	for i, l := range b.layers {
		accesses[i] = l["reg.accesses"] + l["str.accesses"]
	}
	out["sim.accesses"] = median(accesses)
	if fast, slow := sum("fast.accesses"), sum("slow.accesses"); fast+slow > 0 {
		opt["sim.fastpath_pct"] = 100 * fast / (fast + slow)
		opt["prof.sim_bulk_pct"] = ps.pct(catBulk)
	}

	var submit, hitRes, missRes []float64
	for _, x := range s.samples {
		if x.failed {
			continue
		}
		submit = append(submit, ms(x.submit))
		if x.hit {
			hitRes = append(hitRes, ms(x.result))
		} else {
			missRes = append(missRes, ms(x.result))
		}
	}
	out["http.submit_ms"] = median(submit)
	out["http.result_hit_ms"] = median(hitRes)
	out["http.result_hit_p99_ms"], _, _ = percentile(hitRes, 0.99)
	out["streamd.cache_hit_pct"] = median(s.hitPct)
	out["http.result_miss_ms"] = median(missRes)
	out["streamd.queue_wait_ms"] = median(s.queueWaitMs)
	out["streamd.run_ms"] = median(s.runMsMean)
	out["streamd.heap_kb_per_job"] = median(s.heapKBPerJob)
	out["streamd.durable_kb_per_job"] = median(s.durableKBJob)
	out["streamd.restart_events_mb"] = s.restartMB
	out["obs.metricz_scrape_ms"] = median(s.scrapes)
	out["trace_overhead_pct"] = 100 * div(traced.typical()-plain.typical(), plain.typical())
	out["failed_pct"] = 100 * div(float64(traced.failed()+plain.failed()), float64(traced.attempted()+plain.attempted()))
	return out, opt
}

//go:embed pins.json
var pinsJSON []byte

// pins are the app fingerprints of the default seed. A faster
// simulator that changes a simulated statistic is a different program.
type pins struct {
	Seed int64               `json:"seed"`
	Apps map[string]appPrint `json:"apps"`
}

func checkPins(seed int64, prints []appPrint, raw []byte) []string {
	var p pins
	if err := json.Unmarshal(raw, &p); err != nil {
		return []string{fmt.Sprintf("pins: %v", err)}
	}
	if seed != p.Seed {
		return nil
	}
	var bad []string
	for _, pr := range prints {
		want, ok := p.Apps[pr.App]
		if !ok {
			bad = append(bad, fmt.Sprintf("pins: no pinned fingerprint for %s", pr.App))
		} else if want != pr {
			bad = append(bad, fmt.Sprintf("pins: %s computed %+v, pinned %+v", pr.App, pr, want))
		}
	}
	return bad
}

// fingerprint digests everything a pass computed: every app's cycles
// and outputs and every service payload hash, by spec.
func fingerprint(prints []appPrint, hashes map[string]string) string {
	keys := make([]string, 0, len(hashes))
	for k := range hashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	b, _ := json.Marshal(prints)
	h.Write(b)
	for _, k := range keys {
		fmt.Fprintf(h, "\n%s=%s", k, hashes[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: irregular, streaming or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "run length the work is sized for")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced pass")
	repeat := fs.Int("repeat", 0, "run the workload this many times with successive seeds and print each metric's spread")
	workDir := fs.String("workdir", ".bench_build/perfbench", "directory for service files and the trace")
	writePins := fs.String("write-pins", "", "write the run's app fingerprints to this file as the pins of its seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload irregular|streaming|service, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(args, *seed, *repeat, stdout, stderr)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	iters, mx := w.size(*seconds)
	if *trace == 1 {
		// Two passes at half size: untraced, then traced, so the
		// overhead compares equal work and the run keeps its length.
		iters, mx = halve(w, iters, mx)
	}
	fmt.Fprintf(stderr, "perfbench %s seed=%d: %d bundle iterations, %d service segments x %d jobs\n",
		w.name, *seed, iters, mx.segments, clients*mx.jobsPerClient)
	plain, err := runPass(w, *seed, iters, mx, false, *workDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	passes := []pass{plain}
	var traced pass
	if *trace == 1 {
		if traced, err = runPass(w, *seed, iters, mx, true, *workDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		passes = append(passes, traced)
	}

	failures := []string{}
	attempted, failed := 0, 0
	fp0 := ""
	for i, p := range passes {
		attempted += p.attempted()
		failed += p.failed()
		failures = append(failures, p.failures()...)
		fp := fingerprint(p.bundle.prints, p.service.hashes)
		if i == 0 {
			fp0 = fp
		} else if fp != fp0 {
			failed++
			failures = append(failures, fmt.Sprintf("traced pass fingerprint %s differs from untraced %s", fp, fp0))
		}
	}
	if bad := checkPins(*seed, plain.bundle.prints, pinsJSON); len(bad) > 0 {
		failed += len(bad)
		failures = append(failures, bad...)
	}
	fmt.Fprintf(stderr, "fingerprint %s seed=%d: %s\n", w.name, *seed, fp0)
	for _, pr := range plain.bundle.prints {
		fmt.Fprintf(stderr, "  %-32s regular %12d  stream %12d  output %s\n", pr.App, pr.RegularCycles, pr.StreamCycles, pr.Output)
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "FAIL", f)
	}
	if *writePins != "" {
		if err := writePinsFile(*writePins, *seed, plain.bundle.prints); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	sum := summary{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if *trace == 0 {
		e2e, err := endToEnd(w, plain)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		sum.Metrics = e2e
		printMetrics(stderr, "end-to-end", e2e)
	} else {
		vals, opt := perLayer(traced, plain)
		fmt.Fprintf(stderr, "\n%-28s %14s %-6s %-36s %s\n", "per-layer metric", "value", "unit", "should move", "on")
		for _, l := range append(append([]layer(nil), layers...), optionalLayers...) {
			v, ok := vals[l.name]
			if !ok {
				if v, ok = opt[l.name]; !ok {
					fmt.Fprintf(stderr, "%-28s %14s\n", l.name, "absent")
					continue
				}
			} else {
				sum.Metrics[l.name] = metric{v, l.unit}
			}
			fmt.Fprintf(stderr, "%-28s %14.4f %-6s %-36s %s\n", l.name, v, l.unit, l.moves, l.on)
		}
		fmt.Fprintln(stderr)
		printSelfTimes(stderr, traced.spans)
		fmt.Fprintln(stderr)
		traced.prof.print(stderr)
		path := filepath.Join(*workDir, "trace-"+w.name+".json")
		if err := writeTraceFile(path, w.name, traced.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stderr, "trace written to", path)
	}
	out, _ := json.Marshal(sum)
	fmt.Fprintln(stdout, string(out))
	if !sum.Correct {
		return 1
	}
	return 0
}

func halve(w workload, iters int, mx serviceMix) (int, serviceMix) {
	if w.bundle != nil {
		iters = (iters + 1) / 2
	} else {
		mx.segments = (mx.segments + 1) / 2
	}
	return iters, mx
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-20s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func writeTraceFile(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, workload, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writePinsFile(path string, seed int64, prints []appPrint) error {
	p := pins{Seed: seed, Apps: map[string]appPrint{}}
	for _, pr := range prints {
		p.Apps[pr.App] = pr
	}
	var old pins
	if raw, err := os.ReadFile(path); err == nil && json.Unmarshal(raw, &old) == nil && old.Seed == seed {
		for k, v := range old.Apps {
			if _, ok := p.Apps[k]; !ok {
				p.Apps[k] = v
			}
		}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repeatRuns reruns this program n times with successive seeds, each in
// its own process, and prints every metric's quartiles and spread.
func repeatRuns(args []string, seed int64, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var child []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		flagName := strings.TrimLeft(strings.SplitN(a, "=", 2)[0], "-")
		if flagName == "repeat" || flagName == "seed" {
			if !strings.Contains(a, "=") {
				i++
			}
			continue
		}
		child = append(child, a)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		start := time.Now()
		out, code := runChild(self, append(child, "--seed", fmt.Sprint(s)), stderr)
		var sum summary
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || code != 0 || !sum.Correct {
			fmt.Fprintf(stderr, "perfbench: seed %d: exit %d, correct=%v\n", s, code, sum.Correct)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "seed %d (%.1fs): %s\n", s, time.Since(start).Seconds(), lines[len(lines)-1])
		for k, m := range sum.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-28s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-28s %12.4f %12.4f %12.4f %7.1f%% %s\n", k, q1, q2, q3, 100*spread, units[k])
	}
	return status
}

func runChild(self string, args []string, stderr io.Writer) (string, int) {
	var out bytes.Buffer
	cmd := osexec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		var ee interface{ ExitCode() int }
		if errors.As(err, &ee) {
			return out.String(), ee.ExitCode()
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return out.String(), 1
	}
	return out.String(), 0
}
