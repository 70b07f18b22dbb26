package streamd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamgpp/internal/obs"
)

// TestSoak drives ≥500 concurrent jobs — mixed cache hits, per-job
// fault injection, deadlines — through the HTTP API against a small
// worker pool with a shallow queue, triggers a drain mid-soak (the
// same code path the SIGTERM handler runs), and asserts the service's
// contracts rather than logging them:
//
//   - admission control sheds load: at least one submission saw 429,
//     and no submission ever blocked or crashed the server;
//   - zero accepted jobs are lost: every job that got a 202 reaches a
//     terminal state by the time Drain returns;
//   - the cache is sound: every hit's bytes and output hash are
//     identical to a fresh out-of-server run of the same spec;
//   - deadline jobs never return partial output;
//   - the ledger is valid JSONL afterwards with one entry per fresh
//     run.
//
// Run it under -race (scripts/check.sh does): the interesting failure
// modes here are synchronisation bugs between workers, clients, the
// cache and the drain.
func TestSoak(t *testing.T) {
	totalJobs := 520
	drainAfter := 260 // accepted jobs before the mid-soak drain fires
	if testing.Short() {
		// check.sh's -race smoke: small enough to finish in tens of
		// seconds, still >10× the worker+queue capacity so saturation
		// (429) and mid-soak drain remain structural.
		totalJobs, drainAfter = 160, 80
	}

	ledger := filepath.Join(t.TempDir(), "soak.jsonl")
	s, err := New(Options{Workers: 4, QueueDepth: 8, LedgerPath: ledger})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// The spec mix. Indexes < len(cacheable) are deterministic repeat
	// configurations (mostly cache hits); the last two are the fault
	// and deadline mixes.
	cacheable := []JobSpec{
		{App: "QUICKSTART", N: 6000, Comp: 1, Seed: 1},
		{App: "QUICKSTART", N: 6000, Comp: 1, Seed: 2},
		{App: "LD-ST-COMP", N: 8000, Comp: 2, Seed: 3},
		{App: "GAT-SCAT-COMP", N: 5000, Comp: 1, Seed: 4},
		{App: "PROD-CON", N: 5000, Comp: 1, Seed: 5},
		{App: "GAT-SCAT-COMP", N: 5000, Comp: 1, Seed: 6, Fault: "kernel_fault:0.05"},
		{App: "WHATIF", WhatIf: "ident", Quick: true},
	}
	deadlineSpec := JobSpec{App: "QUICKSTART", N: 1_800_000, Comp: 1, Seed: 9, DeadlineMs: 1}
	specFor := func(i int) JobSpec {
		if i%8 == 7 {
			return deadlineSpec
		}
		return cacheable[i%8%len(cacheable)]
	}

	type outcome struct {
		specIdx  int
		id       string // empty if never accepted
		code     int    // result (or final submit) status code
		payload  []byte
		hash     string
		cache    string
		jobState State
	}
	var (
		mu       sync.Mutex
		results  []outcome
		accepted atomic.Int64
		saw429   atomic.Int64
		saw503   atomic.Int64
		drainMu  sync.Mutex
		drained  bool
	)
	record := func(o outcome) {
		mu.Lock()
		results = append(results, o)
		mu.Unlock()
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	var wg sync.WaitGroup
	for i := 0; i < totalJobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specFor(i)
			body, _ := json.Marshal(spec)

			// Submit with 429 backoff. 503 means the drain beat us: the
			// job was never accepted, which is allowed to lose nothing.
			var id string
			for attempt := 0; ; attempt++ {
				resp, err := client.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("job %d: submit: %v", i, err)
					record(outcome{specIdx: i, code: -1})
					return
				}
				var sub JobStatus
				dec := json.NewDecoder(resp.Body)
				switch resp.StatusCode {
				case http.StatusAccepted:
					dec.Decode(&sub)
					resp.Body.Close()
					id = sub.ID
				case http.StatusTooManyRequests:
					resp.Body.Close()
					saw429.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("job %d: 429 without Retry-After", i)
					}
					if attempt > 2000 {
						record(outcome{specIdx: i, code: resp.StatusCode})
						return
					}
					time.Sleep(20 * time.Millisecond)
					continue
				case http.StatusServiceUnavailable:
					resp.Body.Close()
					saw503.Add(1)
					record(outcome{specIdx: i, code: resp.StatusCode})
					return
				default:
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					t.Errorf("job %d: submit code %d: %s", i, resp.StatusCode, b)
					record(outcome{specIdx: i, code: resp.StatusCode})
					return
				}
				break
			}

			// Mid-soak, one client crossing the threshold triggers the
			// drain — from a goroutine, like the signal handler does.
			if accepted.Add(1) == int64(drainAfter) {
				drainMu.Lock()
				if !drained {
					drained = true
					go s.Drain()
				}
				drainMu.Unlock()
			}

			resp, err := client.Get(hs.URL + "/jobs/" + id + "/result?wait=1")
			if err != nil {
				t.Errorf("job %s: result: %v", id, err)
				record(outcome{specIdx: i, id: id, code: -1})
				return
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			o := outcome{
				specIdx: i, id: id, code: resp.StatusCode,
				payload: payload,
				hash:    resp.Header.Get("X-Streamd-Output-Hash"),
				cache:   resp.Header.Get("X-Streamd-Cache"),
			}
			var st JobStatus
			if sresp, err := client.Get(hs.URL + "/jobs/" + id); err == nil {
				json.NewDecoder(sresp.Body).Decode(&st)
				sresp.Body.Close()
			}
			o.jobState = st.State
			record(o)
		}(i)
	}
	wg.Wait()
	s.Drain() // no-op if the mid-soak drain already ran; waits either way

	stats := s.Stats()
	t.Logf("soak: accepted=%d done=%d timed-out=%d shed=%d failed=%d 429s(client)=%d 503s(client)=%d cache hit/miss=%d/%d ledger=%d",
		stats.Accepted, stats.Done, stats.TimedOut, stats.Shed, stats.Failed,
		saw429.Load(), saw503.Load(), stats.CacheHits, stats.CacheMisses, stats.LedgerEntries)

	// Saturation must have been observed and rejected with 429 — with
	// 520 clients against 4 workers and 8 queue slots this is
	// structural, not incidental.
	if saw429.Load() == 0 || stats.RejectedFull == 0 {
		t.Error("soak never saturated admission control (no 429 observed)")
	}
	if stats.Failed != 0 {
		t.Errorf("%d jobs failed (none should: the mix has no failing specs)", stats.Failed)
	}

	// Zero accepted jobs lost: the server's own accounting must
	// balance, and every accepted job's recorded outcome is terminal.
	if got := stats.Done + stats.Failed + stats.TimedOut + stats.Shed; got != stats.Accepted {
		t.Errorf("accepted %d but terminal states sum to %d", stats.Accepted, got)
	}
	freshRuns := map[int]*artifacts{} // cacheable spec idx → fresh out-of-server run
	for i, spec := range cacheable {
		spec.normalize()
		canonical := spec.Canonical(1)
		a, err := runSpec(context.Background(), spec, canonical, obs.Hash(canonical), 1, nil)
		if err != nil {
			t.Fatalf("fresh run of spec %d: %v", i, err)
		}
		freshRuns[i] = a
	}
	var checkedHits int
	for _, o := range results {
		if o.id == "" {
			continue // never accepted (drain or give-up): nothing to lose
		}
		if o.jobState == "" || !o.jobState.Terminal() {
			t.Errorf("accepted job %s (spec %d) not terminal after drain: %q", o.id, o.specIdx, o.jobState)
			continue
		}
		if o.specIdx%8 == 7 {
			// Deadline jobs: timed out or shed, structured error, no
			// partial output.
			if o.code != http.StatusConflict {
				t.Errorf("deadline job %s: result code %d, want 409", o.id, o.code)
			}
			if o.jobState != StateTimedOut && o.jobState != StateShed {
				t.Errorf("deadline job %s state %s", o.id, o.jobState)
			}
			if bytes.Contains(o.payload, []byte("stream_cycles")) {
				t.Errorf("deadline job %s leaked partial output: %s", o.id, o.payload)
			}
			continue
		}
		// Cacheable jobs must succeed with the fresh run's exact bytes.
		fresh := freshRuns[o.specIdx%8%len(cacheable)]
		if o.code != http.StatusOK {
			t.Errorf("job %s (spec %d): result code %d: %s", o.id, o.specIdx, o.code, o.payload)
			continue
		}
		if !bytes.Equal(o.payload, fresh.payload) {
			t.Errorf("job %s (spec %d): payload differs from fresh run\ngot:   %s\nfresh: %s",
				o.id, o.specIdx, o.payload, fresh.payload)
		}
		if o.hash != fresh.hash {
			t.Errorf("job %s: output hash %s, fresh run %s", o.id, o.hash, fresh.hash)
		}
		if o.cache == "hit" {
			checkedHits++
		}
	}
	if checkedHits == 0 {
		t.Error("soak produced no verified cache hits")
	}

	// The ledger survived the drain valid, with one entry per fresh
	// completed run.
	entries, lstats, err := obs.ReadJSONL[obs.LedgerEntry](ledger)
	if err != nil {
		t.Fatalf("post-soak ledger: %v", err)
	}
	if lstats.TornTail {
		t.Error("ledger has a torn tail after a clean drain")
	}
	if uint64(len(entries)) != stats.LedgerEntries {
		t.Errorf("ledger has %d entries, server counted %d", len(entries), stats.LedgerEntries)
	}
	for _, e := range entries {
		if e.Source != "streamd" || e.OutputHash == "" {
			t.Errorf("bad ledger entry: %+v", e)
		}
	}

	// After drain: not ready, still healthy.
	resp, err := client.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d", resp.StatusCode)
	}
}
