package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamgpp/internal/obs"
	"streamgpp/internal/streamd"
)

// serviceMix is a closed-loop streamd traffic mix: two clients each
// submit a job and wait for its result before sending the next. About
// nine jobs in ten repeat a spec from a hit set warmed before timing;
// the rest are fresh runs with unique seeds, a share of which also
// download the Perfetto trace artifact. Client 0 scrapes /metricz
// every scrapeEvery jobs, as streamtop does.
type serviceMix struct {
	segments int // server restarts on the files the earlier ones wrote
	// restarts is the number of set-ups timed per segment, all on the
	// same files: a restart that serves no job writes nothing.
	restarts      int
	jobsPerClient int      // timed jobs per client per segment
	missApps      []string // apps of fresh runs, in rotation
	missN         int
}

const (
	clients     = 2
	missPerMill = 100 // fresh runs per thousand jobs
	hitSetSize  = 12
	hitN        = 2000
	traceEvery  = 4 // every traceEvery-th fresh run requests its trace
	scrapeEvery = 25
)

var hitApps = []string{"QUICKSTART", "LD-ST-COMP", "GAT-SCAT-COMP", "PROD-CON"}

// plan returns each client's job list for one segment. Fresh-run seeds
// are unique across segments and clients, and never collide with the
// hit set's.
func (mx serviceMix) plan(seed int64, segment int, hitSet []streamd.JobSpec) [clients][]streamd.JobSpec {
	var plans [clients][]streamd.JobSpec
	rng := rand.New(rand.NewSource(seed*7919 + int64(segment)))
	nMiss := mx.jobsPerClient * missPerMill / 1000
	fresh := 0
	for c := range plans {
		isMiss := make([]bool, mx.jobsPerClient)
		for _, i := range rng.Perm(mx.jobsPerClient)[:nMiss] {
			isMiss[i] = true
		}
		for i := 0; i < mx.jobsPerClient; i++ {
			if !isMiss[i] {
				plans[c] = append(plans[c], hitSet[rng.Intn(len(hitSet))])
				continue
			}
			fresh++
			spec := streamd.JobSpec{
				App:  mx.missApps[fresh%len(mx.missApps)],
				N:    mx.missN,
				Comp: 1,
				Seed: 1_000_000*seed + 100_000*int64(segment+1) + int64(fresh),
			}
			spec.Trace = fresh%traceEvery == 0
			plans[c] = append(plans[c], spec)
		}
	}
	return plans
}

func hitSet(seed int64) []streamd.JobSpec {
	set := make([]streamd.JobSpec, hitSetSize)
	for i := range set {
		set[i] = streamd.JobSpec{App: hitApps[i%len(hitApps)], N: hitN, Comp: 1, Seed: seed*1000 + int64(i)}
	}
	return set
}

// sample is one completed job as a client saw it.
type sample struct {
	hit         bool // X-Streamd-Cache: hit
	latency     time.Duration
	submit      time.Duration // POST /jobs
	result      time.Duration // GET /jobs/{id}/result?wait=1
	failed      bool
	simCycles   uint64 // regular+stream cycles of a fresh run
	spec, hash  string
	failureNote string
}

// serviceResult is one pass over a service mix.
type serviceResult struct {
	setup       []float64 // seconds per segment, the median of its restarts
	jobsPerSec  []float64 // per segment
	heapPeaks   []float64 // bytes, highest per segment
	samples     []sample
	scrapes     []float64 // ms
	attempted   int
	failed      int
	failures    []string
	runMs       float64 // summed worker run time of timed fresh runs
	queueWaitMs []float64
	runMsMean   []float64
	hitPct      []float64
	// segHit holds each segment's hit latencies (ms), so hit percentiles
	// are taken per segment and their median reported: a burst of host
	// load that slows one segment does not move the result.
	segHit         [][]float64
	heapKBPerJob   []float64
	durableKBJob   []float64
	restartMB      float64           // ledger+events bytes reopened by the last restart
	heapLiveBytes  uint64            // after the last segment's timed phase, server up
	hashes         map[string]string // spec → payload hash
	segSeconds     []float64         // timed phase of each segment
	freshSimCycles uint64
}

// server is one running streamd instance behind loopback HTTP.
type server struct {
	srv  *streamd.Server
	hs   *http.Server
	base string
	done chan error
}

func startServer(ctx context.Context, dir string, client *http.Client) (*server, error) {
	srv, err := streamd.New(streamd.Options{
		Workers:    2,
		LedgerPath: filepath.Join(dir, "ledger.jsonl"),
		EventsPath: filepath.Join(dir, "events.jsonl"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := get(ctx, client, s.base+"/readyz")
	if err == nil && resp.code != http.StatusOK {
		err = fmt.Errorf("perfbench: /readyz answered %d", resp.code)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close() // a connection outlived the timeout: drop it
	}
	<-s.done
	s.srv.Drain()
}

type response struct {
	code   int
	header http.Header
	body   []byte
}

func do(ctx context.Context, client *http.Client, method, url string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return response{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{code: resp.StatusCode, header: resp.Header, body: b}, err
}

func get(ctx context.Context, client *http.Client, url string) (response, error) {
	return do(ctx, client, http.MethodGet, url, nil)
}

// runJob submits one job, waits for its result and checks it. The hit
// or miss class comes from the X-Streamd-Cache header; a hit's output
// hash must equal the fresh hash of the same spec, when one is known.
func runJob(ctx context.Context, tr *tracer, client *http.Client, base string, spec streamd.JobSpec, fresh map[string]string, parent, idx, track int) sample {
	body, _ := json.Marshal(spec)
	key := string(body)
	s := sample{spec: key}
	fail := func(format string, args ...any) sample {
		s.failed = true
		s.failureNote = fmt.Sprintf("%s: ", key) + fmt.Sprintf(format, args...)
		return s
	}
	start := time.Now()
	var id string
	var resp response
	d, err := tr.do(ctx, "http.submit", parent, idx, track, func(ctx context.Context, _ int) error {
		r, err := do(ctx, client, http.MethodPost, base+"/jobs", body)
		if err != nil {
			return err
		}
		if r.code/100 != 2 {
			return fmt.Errorf("POST /jobs answered %d: %s", r.code, r.body)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(r.body, &st); err != nil || st.ID == "" {
			return fmt.Errorf("POST /jobs: no job id in %s", r.body)
		}
		id = st.ID
		return nil
	})
	s.submit = d
	if err != nil {
		return fail("%v", err)
	}
	d, err = tr.do(ctx, "http.result", parent, idx, track, func(ctx context.Context, _ int) error {
		var err error
		resp, err = get(ctx, client, base+"/jobs/"+id+"/result?wait=1")
		return err
	})
	s.result = d
	s.latency = time.Since(start)
	if err != nil {
		return fail("result: %v", err)
	}
	if resp.code != http.StatusOK {
		return fail("result answered %d: %s", resp.code, resp.body)
	}
	s.hit = resp.header.Get("X-Streamd-Cache") == "hit"
	s.hash = resp.header.Get("X-Streamd-Output-Hash")
	if got := obs.Hash(string(resp.body)); got != s.hash {
		return fail("payload hashes to %s, header says %s", got, s.hash)
	}
	var pay streamd.ResultPayload
	if err := json.Unmarshal(resp.body, &pay); err != nil {
		return fail("payload: %v", err)
	}
	if pay.RegularCycles == 0 || pay.StreamCycles == 0 {
		return fail("payload without cycles: %s", resp.body)
	}
	if want, ok := fresh[key]; ok && want != s.hash {
		return fail("output hash %s differs from the fresh run's %s", s.hash, want)
	}
	if !s.hit {
		s.simCycles = pay.RegularCycles + pay.StreamCycles
	}
	if spec.Trace && !s.hit {
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		r, err := get(ctx, client, base+"/jobs/"+id+"/trace")
		if err != nil {
			return fail("trace: %v", err)
		}
		if r.code != http.StatusOK || json.Unmarshal(r.body, &trace) != nil || len(trace.TraceEvents) == 0 {
			return fail("trace answered %d with %d bytes", r.code, len(r.body))
		}
	}
	return s
}

// promValues parses the unlabelled samples of a Prometheus text page.
func promValues(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	r, err := get(ctx, client, base+"/metricz")
	if err != nil {
		return nil, err
	}
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("perfbench: /metricz answered %d", r.code)
	}
	return promValues(r.body), nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func liveHeap() uint64 {
	runtime.GC()
	return heapNow()
}

// ratio of the change in two /metricz series, e.g. a histogram's mean
// over an interval.
func deltaRatio(a, b map[string]float64, num, den string) float64 {
	d := b[den] - a[den]
	if d == 0 {
		return 0
	}
	return (b[num] - a[num]) / d
}

// serviceRunner runs a mix one segment at a time in a directory of
// its own. Each segment restarts the server on the files the earlier
// ones wrote, warms the hit set, then runs the timed closed loop.
type serviceRunner struct {
	ctx            context.Context
	tr             *tracer
	mx             serviceMix
	seed           int64
	dir            string
	ledger, events string
	transport      *http.Transport
	client         *http.Client
	hits           []streamd.JobSpec
	res            serviceResult
}

func newServiceRunner(ctx context.Context, tr *tracer, mx serviceMix, seed int64, dir string) (*serviceRunner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: clients + 1, DisableCompression: true}
	return &serviceRunner{
		ctx: ctx, tr: tr, mx: mx, seed: seed, dir: dir,
		ledger: filepath.Join(dir, "ledger.jsonl"), events: filepath.Join(dir, "events.jsonl"),
		transport: transport, client: &http.Client{Transport: transport, Timeout: 2 * time.Minute},
		hits: hitSet(seed), res: serviceResult{hashes: map[string]string{}},
	}, nil
}

func (r *serviceRunner) close() { r.transport.CloseIdleConnections() }

// segment starts the server mx.restarts times on the files the earlier
// segments wrote, keeping the median set-up time, then serves the
// segment's jobs from the last start. The files grow between segments,
// never within one, so each segment's set-ups time the same work.
func (r *serviceRunner) segment(seg int) error {
	r.res.restartMB = float64(fileSize(r.ledger)+fileSize(r.events)) / 1e6
	var srv *server
	var setups []float64
	for k := 0; k < max(r.mx.restarts, 1); k++ {
		if srv != nil {
			r.stop(srv)
		}
		// Each set-up starts from a collected heap, as bundle
		// iterations do.
		runtime.GC()
		d, err := r.tr.doUnlabelled(r.ctx, "streamd.restart", 0, seg, 0, func(ctx context.Context, _ int) error {
			var err error
			srv, err = startServer(ctx, r.dir, r.client)
			return err
		})
		if err != nil {
			return fmt.Errorf("perfbench: segment %d start: %w", seg, err)
		}
		setups = append(setups, d.Seconds())
	}
	r.res.setup = append(r.res.setup, median(setups))
	err := r.timed(seg, srv)
	r.stop(srv)
	return err
}

func (r *serviceRunner) stop(srv *server) {
	// Close the clients' idle connections first: the server's Shutdown
	// waits up to 5 s on a connection that never sent a request.
	r.transport.CloseIdleConnections()
	srv.stop()
}

// timed warms the hit set on a started server, then runs the segment's
// timed closed loop and reads the server's counters around it.
func (r *serviceRunner) timed(seg int, srv *server) error {
	ctx, tr, client, res := r.ctx, r.tr, r.client, &r.res
	// Warm the hit set with fresh runs, which must reproduce every
	// earlier segment's hashes.
	fresh := map[string]string{}
	for i, spec := range r.hits {
		s := runJob(ctx, tr, client, srv.base, spec, nil, 0, i, 0)
		if s.failed || s.hit {
			return fmt.Errorf("perfbench: warming %s: hit=%v %s", s.spec, s.hit, s.failureNote)
		}
		if prev, ok := res.hashes[s.spec]; ok && prev != s.hash {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("segment %d: %s hashes to %s, earlier %s", seg, s.spec, s.hash, prev))
		}
		res.hashes[s.spec] = s.hash
		fresh[s.spec] = s.hash
	}
	plans := r.mx.plan(r.seed, seg, r.hits)
	before, err := scrape(ctx, client, srv.base)
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	durable0 := fileSize(r.ledger) + fileSize(r.events)
	tr.takePeak()

	var mu sync.Mutex
	var wg sync.WaitGroup
	var scrapeErr error // written by client 0 only
	segTotal, _ := tr.do(ctx, "service.segment", 0, seg, 0, func(ctx context.Context, parent int) error {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, j := range plans[c] {
					s := runJob(ctx, tr, client, srv.base, j, fresh, parent, i, c)
					mu.Lock()
					res.attempted++
					res.samples = append(res.samples, s)
					if s.failed {
						res.failed++
						res.failures = append(res.failures, fmt.Sprintf("segment %d client %d job %d: %s", seg, c, i, s.failureNote))
					} else if !s.hit {
						res.hashes[s.spec] = s.hash
						res.freshSimCycles += s.simCycles
					}
					mu.Unlock()
					if c == 0 && (i+1)%scrapeEvery == 0 {
						d, err := tr.do(ctx, "obs.metricz_scrape", parent, i, c, func(ctx context.Context, _ int) error {
							_, err := scrape(ctx, client, srv.base)
							return err
						})
						if err != nil {
							scrapeErr = err
							return
						}
						mu.Lock()
						res.scrapes = append(res.scrapes, ms(d))
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		return nil
	})
	res.heapPeaks = append(res.heapPeaks, float64(tr.takePeak()))
	if scrapeErr != nil {
		return scrapeErr
	}
	jobs := clients * r.mx.jobsPerClient
	hit, _ := latencies(res.samples[len(res.samples)-jobs:])
	res.segHit = append(res.segHit, hit)
	res.segSeconds = append(res.segSeconds, segTotal.Seconds())
	res.jobsPerSec = append(res.jobsPerSec, float64(jobs)/segTotal.Seconds())
	after, err := scrape(ctx, client, srv.base)
	if err != nil {
		return err
	}
	res.heapLiveBytes = liveHeap()
	res.heapKBPerJob = append(res.heapKBPerJob, (float64(res.heapLiveBytes)-float64(heap0))/1024/float64(jobs))
	res.durableKBJob = append(res.durableKBJob, float64(fileSize(r.ledger)+fileSize(r.events)-durable0)/1024/float64(jobs))
	res.queueWaitMs = append(res.queueWaitMs, deltaRatio(before, after, "streamd_queue_wait_ms_sum", "streamd_queue_wait_ms_count"))
	res.runMsMean = append(res.runMsMean, deltaRatio(before, after, "streamd_run_ms_sum", "streamd_run_ms_count"))
	res.runMs += after["streamd_run_ms_sum"] - before["streamd_run_ms_sum"]
	hits := after["streamd_cache_hits"] - before["streamd_cache_hits"]
	misses := after["streamd_cache_misses"] - before["streamd_cache_misses"]
	if hits+misses > 0 {
		res.hitPct = append(res.hitPct, 100*hits/(hits+misses))
	}
	return nil
}
