// Command streamd serves the simulator as a fault-tolerant job
// service: an HTTP/JSON API with admission control (bounded job queue,
// 429 + Retry-After under saturation), per-job deadlines and fault
// injection, a content-addressed result cache, and graceful SIGTERM
// drain (accepted jobs finish, new ones are rejected, the run ledger
// stays valid).
//
// Usage:
//
//	streamd -addr :8372 -workers 4 -queue 64 -ledger streamd.jsonl
//	streamd -selftest -ledger /tmp/streamd.jsonl
//
// Endpoints (see internal/streamd and the README's "Running streamd"):
//
//	POST /jobs                GET /jobs/{id}         GET /jobs/{id}/result
//	GET  /jobs/{id}/events    GET /jobs/{id}/stream  (SSE live progress)
//	GET  /jobs/{id}/trace     GET /jobs/{id}/coverage
//	GET  /healthz             GET /readyz            GET /statz
//	GET  /metricz             (Prometheus text exposition)
//	GET  /sloz                (SLO burn-rate report, JSON or ?format=text)
//	GET  /debug/pprof/        (live profiling, only with -pprof)
//
// Structured logs (log/slog) go to stderr — one access-log line per
// request and one lifecycle line per job transition, joined to the
// events JSONL and ledger by job_id/config_hash; -logformat picks
// text or json.
//
// -selftest starts a server on a loopback port and drives the
// check.sh smoke against it over real HTTP: submit the quickstart job
// twice, assert the second response is a cache hit with byte-identical
// output, stream a larger job over SSE and assert at least one
// mid-run progress frame arrives before its done event, scrape
// /metricz (including the build-info and Go-runtime telemetry), /sloz
// and a live pprof goroutine profile, read the job's lifecycle event
// log, send the process a real SIGTERM mid-flight, assert the drain
// finished the in-flight job, rejected new work and left a valid
// ledger and event log, and finally gate on goroutine leaks: the
// count must return to its pre-server baseline. Exit 0 means every
// assertion held.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"streamgpp/internal/obs"
	"streamgpp/internal/streamd"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	workers := flag.Int("workers", 4, "job worker pool size")
	queue := flag.Int("queue", 64, "job queue depth (admission bound; full queue → 429)")
	cacheN := flag.Int("cache", 1024, "result cache capacity, entries")
	maxN := flag.Int("maxn", 2_000_000, "largest per-job problem size admitted")
	ledger := flag.String("ledger", "", "append one run-ledger JSONL entry per fresh run; repaired at startup if torn")
	faultSeed := flag.Uint64("faultseed", 1, "base seed for per-job fault-schedule derivation")
	logformat := flag.String("logformat", "text", "structured log encoding on stderr: text or json")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	selftest := flag.Bool("selftest", false, "run the lifecycle self-test against a loopback server and exit")
	flag.Parse()

	var handler slog.Handler
	switch *logformat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "streamd: -logformat %q: want text or json\n", *logformat)
		os.Exit(2)
	}

	opts := streamd.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cacheN,
		MaxN:          *maxN,
		LedgerPath:    *ledger,
		BaseFaultSeed: *faultSeed,
		Logger:        slog.New(handler),
		EnablePprof:   *pprof,
	}

	if *selftest {
		if err := runSelftest(opts); err != nil {
			fmt.Fprintf(os.Stderr, "streamd: selftest: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("streamd: selftest passed")
		return
	}

	s, err := streamd.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamd: %v\n", err)
		os.Exit(1)
	}
	hs := newHTTPServer(*addr, s.Handler())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("streamd: listening on %s (workers %d, queue %d)\n", *addr, opts.Workers, opts.QueueDepth)

	select {
	case sig := <-sigc:
		fmt.Printf("streamd: %v: draining (accepted jobs finish, new jobs rejected)\n", sig)
		s.Drain()
		hs.Close()
		st := s.Stats()
		fmt.Printf("streamd: drained clean: %d done, %d timed-out, %d shed, %d failed, %d ledger entries\n",
			st.Done, st.TimedOut, st.Shed, st.Failed, st.LedgerEntries)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "streamd: %v\n", err)
		os.Exit(1)
	}
}

// runSelftest exercises the full lifecycle over real HTTP and a real
// SIGTERM, as the check.sh smoke.
func runSelftest(opts streamd.Options) error {
	if opts.Workers < 2 {
		opts.Workers = 2 // the drain assertion needs a job in flight while we kill ourselves
	}
	opts.EnablePprof = true // the selftest always fetches a live profile
	// The leak gate's baseline: everything the server and its clients
	// spawn from here on must be gone again after the drain.
	baseGoroutines := runtime.NumGoroutine()
	s, err := streamd.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer("", s.Handler())
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("streamd: selftest server on %s\n", base)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)

	submit := func(spec string) (streamd.JobStatus, error) {
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(spec)))
		if err != nil {
			return streamd.JobStatus{}, err
		}
		defer resp.Body.Close()
		var st streamd.JobStatus
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			return st, fmt.Errorf("submit %s: %d: %s", spec, resp.StatusCode, b)
		}
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}
	result := func(id string) (int, []byte, http.Header, error) {
		resp, err := http.Get(base + "/jobs/" + id + "/result?wait=1")
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, resp.Header, err
	}

	// 1. Quickstart twice: fresh run, then a byte-identical cache hit.
	const quick = `{"app":"QUICKSTART","n":60000}`
	j1, err := submit(quick)
	if err != nil {
		return err
	}
	code, fresh, hdr1, err := result(j1.ID)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("fresh quickstart: code %d, err %v: %s", code, err, fresh)
	}
	if hdr1.Get("X-Streamd-Cache") != "miss" {
		return fmt.Errorf("first quickstart served as %q, want miss", hdr1.Get("X-Streamd-Cache"))
	}
	j2, err := submit(quick)
	if err != nil {
		return err
	}
	code, cached, hdr2, err := result(j2.ID)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("cached quickstart: code %d, err %v", code, err)
	}
	if hdr2.Get("X-Streamd-Cache") != "hit" {
		return fmt.Errorf("second quickstart served as %q, want hit", hdr2.Get("X-Streamd-Cache"))
	}
	if !bytes.Equal(fresh, cached) || hdr1.Get("X-Streamd-Output-Hash") != hdr2.Get("X-Streamd-Output-Hash") {
		return fmt.Errorf("cache hit is not byte-identical to the fresh run")
	}
	fmt.Printf("streamd: selftest cache hit verified (hash %s)\n", hdr2.Get("X-Streamd-Output-Hash"))

	// 2. Live progress over SSE: a bigger job must deliver at least one
	// mid-run progress frame before its done event. Frames only exist
	// while the job runs (the latest replays on connect), so seeing one
	// proves the stream attached mid-run. Distinct seeds keep every
	// attempt a fresh run — a cache hit would finish instantly.
	var sseJob streamd.JobStatus
	var progressFrames int
	for attempt := 1; attempt <= 3 && progressFrames == 0; attempt++ {
		sseJob, err = submit(fmt.Sprintf(`{"app":"GAT-SCAT-COMP","n":%d,"comp":2,"seed":%d}`, 200000*attempt, 100+attempt))
		if err != nil {
			return err
		}
		resp, err := http.Get(base + "/jobs/" + sseJob.ID + "/stream")
		if err != nil {
			return err
		}
		doneSeen := false
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			switch sc.Text() {
			case "event: progress":
				progressFrames++
			case "event: done":
				doneSeen = true
			}
		}
		resp.Body.Close()
		if !doneSeen {
			return fmt.Errorf("SSE stream for %s ended without a done event", sseJob.ID)
		}
	}
	if progressFrames == 0 {
		return fmt.Errorf("SSE streams delivered no mid-run progress frames")
	}
	fmt.Printf("streamd: selftest observed %d mid-run progress frames over SSE\n", progressFrames)

	// 3. The lifecycle event log for that job, via the API.
	resp, err := http.Get(base + "/jobs/" + sseJob.ID + "/events")
	if err != nil {
		return err
	}
	var events []streamd.Event
	err = json.NewDecoder(resp.Body).Decode(&events)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if len(events) < 4 || events[0].Type != "submit" || events[len(events)-1].Type != "terminal" {
		return fmt.Errorf("job %s event log implausible: %d events", sseJob.ID, len(events))
	}

	// 4. /metricz: a parseable Prometheus exposition carrying the job
	// counters and the run-duration histogram.
	resp, err = http.Get(base + "/metricz")
	if err != nil {
		return err
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var counterLine string
	families := make(map[string]bool)
	for _, line := range strings.Split(string(prom), "\n") {
		if strings.HasPrefix(line, "streamd_jobs_accepted ") {
			counterLine = line
		}
		// Two families with one name (a PromName flattening collision)
		// make the whole exposition unscrapable — reject it here.
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("metricz: malformed TYPE line %q", line)
			}
			if families[fields[2]] {
				return fmt.Errorf("metricz: duplicate metric family %q:\n%s", fields[2], prom)
			}
			families[fields[2]] = true
		}
	}
	if counterLine == "" || !strings.Contains(string(prom), "# TYPE streamd_run_ms histogram") {
		return fmt.Errorf("metricz exposition incomplete:\n%s", prom)
	}
	// The self-observation plane rides the same scrape: the build-info
	// gauge and the Go runtime collector's telemetry.
	for _, want := range []string{"streamd_build_info{", "go_goroutines ", "go_heap_inuse_bytes "} {
		if !strings.Contains(string(prom), want) {
			return fmt.Errorf("metricz missing %q:\n%s", want, prom)
		}
	}
	fmt.Printf("streamd: selftest metricz scrape ok (%s)\n", counterLine)

	// 4b. /sloz: the SLO engine evaluates every declared objective with
	// finite burn numbers. (Healthy is not asserted — a slow CI host can
	// legitimately burn the run-latency budget.)
	resp, err = http.Get(base + "/sloz")
	if err != nil {
		return err
	}
	var slorep obs.SLOReport
	err = json.NewDecoder(resp.Body).Decode(&slorep)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("sloz decode: %w", err)
	}
	if len(slorep.Objectives) == 0 {
		return fmt.Errorf("sloz reported no objectives")
	}
	for _, o := range slorep.Objectives {
		if len(o.Windows) == 0 {
			return fmt.Errorf("sloz objective %s has no windows", o.Name)
		}
		for _, w := range o.Windows {
			if w.SLI < 0 || w.SLI > 1 {
				return fmt.Errorf("sloz objective %s window %s: SLI %v out of [0,1]", o.Name, w.Window, w.SLI)
			}
		}
	}
	fmt.Printf("streamd: selftest sloz ok (%d objectives)\n", len(slorep.Objectives))

	// 4c. Live profiling over real HTTP: the goroutine profile must be
	// served and look like one.
	resp, err = http.Get(base + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return err
	}
	profile, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(profile), "goroutine") {
		return fmt.Errorf("pprof goroutine profile: code %d, %d bytes", resp.StatusCode, len(profile))
	}
	fmt.Printf("streamd: selftest pprof profile fetched (%d bytes)\n", len(profile))

	// 5. Put a job in flight, then SIGTERM ourselves: the drain must
	// finish it, reject new work, and leave the ledger valid.
	j3, err := submit(`{"app":"GAT-SCAT-COMP","n":120000,"comp":2}`)
	if err != nil {
		return err
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-sigc:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("SIGTERM never delivered")
	}
	s.Drain()

	code, b, _, err := result(j3.ID)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("in-flight job after drain: code %d, err %v: %s", code, err, b)
	}
	if _, err := submit(quick); err == nil {
		return fmt.Errorf("submit accepted during drain, want 503")
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	hs.Close()

	// 6. Ledger: valid JSONL, one entry per fresh run (the cache hit
	// appends nothing). The event log next to it must round-trip too,
	// with its tail whole — Drain closed it after the last worker.
	if opts.LedgerPath != "" {
		entries, stats, err := obs.ReadJSONL[obs.LedgerEntry](opts.LedgerPath)
		if err != nil {
			return fmt.Errorf("post-drain ledger: %w", err)
		}
		if stats.TornTail {
			return fmt.Errorf("post-drain ledger has a torn tail")
		}
		if len(entries) < 2 {
			return fmt.Errorf("post-drain ledger has %d entries, want ≥2", len(entries))
		}
		fmt.Printf("streamd: selftest ledger valid (%d entries)\n", len(entries))
		events, estats, err := obs.ReadJSONL[streamd.Event](opts.LedgerPath + ".events")
		if err != nil {
			return fmt.Errorf("post-drain event log: %w", err)
		}
		if estats.TornTail {
			return fmt.Errorf("post-drain event log has a torn tail")
		}
		jobs := make(map[string]bool)
		for _, e := range events {
			jobs[e.Job] = true
		}
		fmt.Printf("streamd: selftest event log valid (%d events over %d jobs)\n", estats.Records, len(jobs))
	}
	st := s.Stats()
	if st.Failed != 0 {
		return fmt.Errorf("selftest jobs failed: %+v", st)
	}

	// 7. Goroutine-leak gate: with the pool drained, the listener closed
	// and the client's keep-alive connections dropped, the goroutine
	// count must return to (near) the pre-server baseline. The slack
	// covers runtime goroutines spawned after the baseline was taken
	// (signal.Notify's watcher, a GC worker); a leaked worker or
	// handler would hold the count well above it.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	var after int
	for {
		after = runtime.NumGoroutine()
		if after <= baseGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine-leak gate: %d goroutines long after drain (baseline %d)", after, baseGoroutines)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("streamd: selftest goroutine-leak gate ok (baseline %d, after drain %d)\n", baseGoroutines, after)
	return nil
}

// newHTTPServer bounds how long a client may take to send its request
// headers and how long an idle keep-alive connection stays open. It
// sets no WriteTimeout: long-poll results and the SSE progress stream
// legitimately hold a response open for the whole run.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}
