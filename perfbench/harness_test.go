package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/streamd"
)

// runBundle runs iters iterations of the bundle back to back.
func runBundle(ctx context.Context, tr *tracer, apps []appSpec, iters int) bundleResult {
	b := newBundleRunner(ctx, tr, apps)
	for it := 0; it < iters; it++ {
		b.iteration(it)
	}
	return b.res
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, n, ok := percentile(xs, 0.50)
	if !ok || n != 20 || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, n=%d, ok=%v; want 10, 20, true", v, n, ok)
	}
	if _, n, ok := percentile(xs, 0.90); ok || n != 20 {
		t.Fatalf("p90 of 20 samples: n=%d ok=%v; want 20 and not ok (2 beyond)", n, ok)
	}
	hundred := make([]float64, 100)
	if _, _, ok := percentile(hundred, 0.90); !ok {
		t.Fatal("p90 of 100 samples has 10 beyond and must be reported")
	}
	if _, _, ok := percentile(hundred, 0.95); ok {
		t.Fatal("p95 of 100 samples has 5 beyond and must not be reported")
	}
	if _, n, ok := percentile(nil, 0.5); ok || n != 0 {
		t.Fatalf("empty: n=%d ok=%v", n, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func newTestServer(t *testing.T) (*server, *http.Client) {
	t.Helper()
	client := &http.Client{Timeout: time.Minute}
	srv, err := startServer(context.Background(), t.TempDir(), client)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.stop)
	return srv, client
}

// The client's plan does not decide the class; the response header
// does.
func TestHitMissClassifiedByHeader(t *testing.T) {
	srv, client := newTestServer(t)
	tr := newTracer(false)
	ctx := context.Background()
	spec := streamd.JobSpec{App: "QUICKSTART", N: 500, Comp: 1, Seed: 5}

	// The same spec twice: the class must follow the server's cache,
	// whatever the client expected of the spec.
	first := runJob(ctx, tr, client, srv.base, spec, nil, 0, 0, 0)
	if first.failed || first.hit {
		t.Fatalf("first submission: failed=%v hit=%v %s", first.failed, first.hit, first.failureNote)
	}
	fresh := map[string]string{first.spec: first.hash}
	second := runJob(ctx, tr, client, srv.base, spec, fresh, 0, 1, 0)
	if second.failed || !second.hit {
		t.Fatalf("repeat: failed=%v hit=%v %s", second.failed, second.hit, second.failureNote)
	}
	if second.hash != first.hash {
		t.Fatalf("hit hash %s, fresh %s", second.hash, first.hash)
	}
	hit, miss := latencies([]sample{first, second})
	if len(hit) != 1 || len(miss) != 1 {
		t.Fatalf("latencies split %d hits, %d misses; want 1 and 1", len(hit), len(miss))
	}
}

// fakeStreamd answers POST /jobs with a job id and the result with the
// given status, headers and body.
func fakeStreamd(t *testing.T, submitCode, resultCode int, cache, hash, body string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(submitCode)
		fmt.Fprint(w, `{"id":"job-1"}`)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Streamd-Cache", cache)
		w.Header().Set("X-Streamd-Output-Hash", hash)
		w.WriteHeader(resultCode)
		fmt.Fprint(w, body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestFailureAccounting(t *testing.T) {
	payload := `{"app":"QUICKSTART","canonical":"c","key":"k","regular_cycles":10,"stream_cycles":7}`
	good := obs.Hash(payload)
	spec := streamd.JobSpec{App: "QUICKSTART", N: 10, Seed: 1}
	key, _ := json.Marshal(spec)
	cases := []struct {
		name               string
		submit, result     int
		cache, hash, fresh string
		wantFail           bool
	}{
		{"ok hit", 202, 200, "hit", good, good, false},
		{"submit 500", 500, 200, "hit", good, "", true},
		{"submit 429", 429, 200, "hit", good, "", true},
		{"result 409", 202, 409, "miss", good, "", true},
		{"header hash wrong", 202, 200, "hit", "0000", "", true},
		{"hit differs from fresh", 202, 200, "hit", good, "ffff", true},
	}
	tr := newTracer(false)
	client := &http.Client{Timeout: time.Minute}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := fakeStreamd(t, c.submit, c.result, c.cache, c.hash, payload)
			var fresh map[string]string
			if c.fresh != "" {
				fresh = map[string]string{string(key): c.fresh}
			}
			s := runJob(context.Background(), tr, client, base, spec, fresh, 0, 0, 0)
			if s.failed != c.wantFail {
				t.Fatalf("failed=%v (%s), want %v", s.failed, s.failureNote, c.wantFail)
			}
			if c.wantFail {
				hit, miss := latencies([]sample{s})
				if !math.IsInf(hit[0], 1) || !math.IsInf(miss[0], 1) {
					t.Fatalf("a failed job must miss every limit: hit %v miss %v", hit, miss)
				}
			}
		})
	}
}

func TestPinsFireOnChangedValue(t *testing.T) {
	pr := appPrint{App: "A", RegularCycles: 100, StreamCycles: 50, Output: "abc"}
	raw, _ := json.Marshal(pins{Seed: 1, Apps: map[string]appPrint{"A": pr}})
	if bad := checkPins(1, []appPrint{pr}, raw); len(bad) != 0 {
		t.Fatalf("unchanged prints flagged: %v", bad)
	}
	for _, changed := range []appPrint{
		{App: "A", RegularCycles: 101, StreamCycles: 50, Output: "abc"},
		{App: "A", RegularCycles: 100, StreamCycles: 49, Output: "abc"},
		{App: "A", RegularCycles: 100, StreamCycles: 50, Output: "abd"},
		{App: "B", RegularCycles: 100, StreamCycles: 50, Output: "abc"},
	} {
		if bad := checkPins(1, []appPrint{changed}, raw); len(bad) != 1 {
			t.Errorf("%+v: got %v, want one finding", changed, bad)
		}
	}
	if bad := checkPins(2, []appPrint{{App: "A"}}, raw); bad != nil {
		t.Fatalf("another seed has no pins, got %v", bad)
	}
}

// The embedded pins must cover both bundles of the default seed.
func TestEmbeddedPinsCoverBundles(t *testing.T) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		t.Fatal(err)
	}
	for _, a := range append(irregularBundle(p.Seed), streamingBundle(p.Seed)...) {
		if _, ok := p.Apps[a.name]; !ok {
			t.Errorf("no pin for %s", a.name)
		}
	}
}

// stageProbe is a context whose Err snapshots a registry the first time
// it is called. micro's Run functions call it once, between the regular
// and the stream phase, so the snapshot holds the regular machine's
// published counters before the stream machine's overwrite them.
type stageProbe struct {
	context.Context
	reg  *obs.Registry
	snap obs.Snapshot
}

func (p *stageProbe) Err() error {
	if p.snap == nil {
		p.snap = p.reg.Snapshot()
	}
	return nil
}

// runMicro runs one of micro's benchmarks and returns its result and
// the fast-path accesses of its regular and stream machines together.
func runMicro(t *testing.T, run func(micro.Params, exec.Config) (micro.Result, error), p micro.Params) (micro.Result, float64) {
	t.Helper()
	probe := &stageProbe{Context: context.Background(), reg: obs.NewRegistry()}
	p.Observer = probe.reg
	ecfg := exec.Defaults()
	ecfg.Ctx = probe
	res, err := run(p, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe.snap == nil {
		t.Fatal("micro run never checked its context between phases")
	}
	return res, probe.snap["coverage.fast_accesses"].Value + probe.reg.Snapshot()["coverage.fast_accesses"].Value
}

// The benchmark's split of each app into build, compile, run and check
// must compute what the app's own Run computes. For the micro-benchmarks,
// which the benchmark rebuilds, the fast-path access count must match
// too: the fast path leaves cycle counts unchanged, so only this count
// shows whether a regular loop declares its references as micro's does.
func TestBundleAppsMatchAppRuns(t *testing.T) {
	ecfg := exec.Defaults()
	const n, seed = 3000, 4
	type want struct {
		app      appSpec
		reg, str uint64
		fast     float64 // -1 where not compared
	}
	ld, ldFast := runMicro(t, micro.RunLDST, micro.Params{N: n, Comp: 1, Seed: seed})
	gs, gsFast := runMicro(t, micro.RunGATSCAT, micro.Params{N: n, Comp: 1, Seed: seed})
	improved := sim.ImprovedStream()
	gsi, gsiFast := runMicro(t, micro.RunGATSCAT, micro.Params{N: n, Comp: 1, Seed: seed, Machine: &improved})
	sp, err := spas.Run(spas.Params{Rows: 600, NNZPerRow: spas.PaperNNZPerRow, Seed: seed}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := cdp.Grid4n4096
	grid.Steps = 1
	cd, err := cdp.Run(grid, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := neo.Run(neo.Params{Elements: 512, Seed: seed}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []want{
		{ldstApp(sim.PentiumD8300(), n, 1, seed), ld.Regular.Cycles, ld.Stream.Cycles, ldFast},
		{gatscatApp("paper", sim.PentiumD8300(), n, 1, seed), gs.Regular.Cycles, gs.Stream.Cycles, gsFast},
		{gatscatApp("improved", improved, n, 1, seed), gsi.Regular.Cycles, gsi.Stream.Cycles, gsiFast},
		{spasApp(600, seed), sp.Regular.Cycles, sp.Stream.Cycles, -1},
		{cdpApp(cdp.Grid4n4096), cd.Regular.Cycles, cd.Stream.Cycles, -1},
		{neoApp(512, seed), ne.Regular.Cycles, ne.Stream.Cycles, -1},
	}
	for _, c := range cases {
		// Tracing on, so the bundle reads the machines' counters.
		res := runBundle(context.Background(), newTracer(true), []appSpec{c.app}, 2)
		if res.failed != 0 {
			t.Fatalf("%s: %v", c.app.name, res.failures)
		}
		got := res.prints[0]
		if got.RegularCycles != c.reg || got.StreamCycles != c.str {
			t.Errorf("%s: cycles %d/%d, app's own run %d/%d", c.app.name, got.RegularCycles, got.StreamCycles, c.reg, c.str)
		}
		if fast := res.layers[0]["fast.accesses"]; c.fast >= 0 && fast != c.fast {
			t.Errorf("%s: %v fast-path accesses, app's own run %v", c.app.name, fast, c.fast)
		}
	}
}

func TestTracedBundleReportsLayers(t *testing.T) {
	tr := newTracer(true)
	res := runBundle(context.Background(), tr, []appSpec{gatscatApp("paper", sim.PentiumD8300(), 2000, 1, 1)}, 1)
	if res.failed != 0 {
		t.Fatal(res.failures)
	}
	l := res.layers[0]
	for _, k := range []string{"reg.accesses", "str.accesses", "tlb.translations", "cache.accesses", "svm.gather.elems", "wq.tasks"} {
		if l[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, l[k])
		}
	}
	if l["svm.gather.indexed_elems"] != l["svm.gather.elems"] {
		t.Errorf("GAT-SCAT gathers are all indexed: %v of %v", l["svm.gather.indexed_elems"], l["svm.gather.elems"])
	}
	names := map[string]bool{}
	for _, s := range tr.spans {
		names[s.name] = true
	}
	for _, n := range []string{"bundle.iteration", "apps.build", "compiler.compile", "exec.regular", "exec.stream", "apps.verify"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
	var b strings.Builder
	if err := writeTrace(&b, "test", tr.spans); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &tf); err != nil || len(tf.TraceEvents) < len(tr.spans) {
		t.Fatalf("trace: %v, %d events for %d spans", err, len(tf.TraceEvents), len(tr.spans))
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "seg", start: 0, end: 100 * ms},
		{id: 2, parent: 1, name: "a", start: 10 * ms, end: 60 * ms},
		{id: 3, parent: 1, name: "b", start: 40 * ms, end: 80 * ms}, // overlaps a
	}
	self := selfTimes(spans)
	if self["seg"] != 30*ms || self["a"] != 50*ms || self["b"] != 40*ms {
		t.Fatalf("self times %v", self)
	}
}

func TestParseProfileKeepsSpanLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	var sink float64
	pprof.Do(context.Background(), pprof.Labels("span", "busy"), func(context.Context) {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				sink += math.Sqrt(float64(i))
			}
		}
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ps := summarize(samples)
	var busy int64
	for _, ns := range ps.bySpan["busy"] {
		busy += ns
	}
	if busy == 0 || ps.total < busy {
		t.Fatalf("busy span has %d ns of %d total (sink %v)", busy, ps.total, sink)
	}
}
