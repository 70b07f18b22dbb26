package streamd

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
)

// eventTypes projects the type sequence for order assertions.
func eventTypes(events []Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.Type
	}
	return out
}

func getEvents(t *testing.T, hs string, id string) []Event {
	t.Helper()
	resp, err := http.Get(hs + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events endpoint = %d", resp.StatusCode)
	}
	var events []Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	return events
}

// The lifecycle log end to end: a fresh run logs submit → admit →
// start → terminal(miss); a cache hit logs submit → admit →
// terminal(hit) with no start; the persisted JSONL round-trips, and a
// torn tail is tolerated on read and repaired on reopen.
func TestEventLogLifecycle(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	s, hs := newTestServer(t, Options{Workers: 1, LedgerPath: ledger})
	eventsPath := ledger + ".events"

	spec := quickSpec()
	_, body, _ := submit(t, hs, spec)
	id := body["id"].(string)
	if code, b, _ := fetchResult(t, hs, id); code != http.StatusOK {
		t.Fatalf("fresh run failed (%d): %s", code, b)
	}

	fresh := getEvents(t, hs.URL, id)
	want := []string{EventSubmit, EventAdmit, EventStart, EventTerminal}
	if got := eventTypes(fresh); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("fresh-run events %v, want %v", got, want)
	}
	for i, e := range fresh {
		if e.Job != id {
			t.Errorf("event %d carries job %q, want %q", i, e.Job, id)
		}
		if e.Key == "" {
			t.Errorf("event %d without a config key", i)
		}
		if i > 0 {
			if e.Seq <= fresh[i-1].Seq {
				t.Errorf("seq not strictly increasing at event %d: %d after %d", i, e.Seq, fresh[i-1].Seq)
			}
			if e.TNs < fresh[i-1].TNs {
				t.Errorf("t_ns went backwards at event %d: %d after %d", i, e.TNs, fresh[i-1].TNs)
			}
		}
	}
	if term := fresh[3]; term.State != StateDone || term.Cache != "miss" || term.Error != nil {
		t.Fatalf("terminal event wrong: %+v", term)
	}

	// Same spec again: content-addressed hit, so no start event.
	_, body2, _ := submit(t, hs, spec)
	id2 := body2["id"].(string)
	if code, b, _ := fetchResult(t, hs, id2); code != http.StatusOK {
		t.Fatalf("cached run failed (%d): %s", code, b)
	}
	hit := getEvents(t, hs.URL, id2)
	if got := eventTypes(hit); strings.Join(got, ",") != "submit,admit,terminal" {
		t.Fatalf("cache-hit events %v, want [submit admit terminal]", got)
	}
	if term := hit[2]; term.Cache != "hit" || term.State != StateDone {
		t.Fatalf("cache-hit terminal event wrong: %+v", term)
	}

	// Drain closes the file; the JSONL must round-trip completely.
	s.Drain()
	all, stats, err := obs.ReadJSONL[Event](eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTail || stats.Records != 7 || jobCount(all) != 2 {
		t.Fatalf("persisted log stats %+v over %d jobs, want 7 events over 2 jobs, no torn tail", stats, jobCount(all))
	}
	lastSeq := all[len(all)-1].Seq

	// A torn final line — the crash signature — is skipped on read…
	f, err := os.OpenFile(eventsPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999,"job":"job-tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, stats, err = obs.ReadJSONL[Event](eventsPath)
	if err != nil {
		t.Fatalf("torn tail must not fail the read: %v", err)
	}
	if !stats.TornTail || stats.Records != 7 {
		t.Fatalf("after tearing: stats %+v, want TornTail with 7 events", stats)
	}

	// …and repaired on reopen, with Seq continuing past the last
	// persisted value (never reused).
	l, err := newEventLog(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	l.append(Event{Job: "job-next", Type: EventSubmit})
	if err := l.closeFile(); err != nil {
		t.Fatal(err)
	}
	all, stats, err = obs.ReadJSONL[Event](eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTail {
		t.Fatal("reopen did not repair the torn tail")
	}
	if got := all[len(all)-1].Seq; got != lastSeq+1 {
		t.Fatalf("seq after reopen = %d, want %d (continue, never reuse)", got, lastSeq+1)
	}

	// Mid-file garbage is corruption, not a torn write: hard error, and
	// the server refuses to start on it.
	if err := os.WriteFile(eventsPath, []byte("{garbage\n"+`{"seq":1,"job":"j","type":"submit"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.ReadJSONL[Event](eventsPath); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("mid-file corruption: err = %v, want an error naming line 1", err)
	}
	if _, err := New(Options{EventsPath: eventsPath}); err == nil {
		t.Fatal("server started on a corrupt event log")
	}
}

// jobCount returns the number of distinct job IDs in events.
func jobCount(events []Event) int {
	jobs := make(map[string]bool)
	for _, e := range events {
		jobs[e.Job] = true
	}
	return len(jobs)
}

// The in-memory per-job index is capped: a fault-storm job emitting
// thousands of retry events keeps bounded memory, retaining the head
// (submit/admit/start) and the most recent tail (the terminal event),
// while the JSONL file keeps the complete history.
func TestEventLogInMemoryCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := newEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const retries = 2000
	l.append(Event{Job: "job-storm", Type: EventSubmit})
	l.append(Event{Job: "job-storm", Type: EventAdmit})
	l.append(Event{Job: "job-storm", Type: EventStart})
	for i := 0; i < retries; i++ {
		l.append(Event{Job: "job-storm", Type: EventRetry, State: StateRunning})
	}
	l.append(Event{Job: "job-storm", Type: EventTerminal, State: StateDone})
	if err := l.closeFile(); err != nil {
		t.Fatal(err)
	}
	const total = retries + 4

	got := l.jobEvents("job-storm")
	if len(got) != maxJobEvents {
		t.Fatalf("in-memory history = %d events, want capped at %d", len(got), maxJobEvents)
	}
	if head := eventTypes(got[:3]); strings.Join(head, ",") != "submit,admit,start" {
		t.Fatalf("head lifecycle events evicted: %v", head)
	}
	if last := got[len(got)-1]; last.Type != EventTerminal {
		t.Fatalf("terminal event evicted: %+v", last)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("retained events out of order at %d: seq %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
	if want := uint64(total - maxJobEvents); l.evicted != want {
		t.Fatalf("evicted = %d, want %d", l.evicted, want)
	}

	// The file is exempt from the cap: every event persists.
	all, stats, err := obs.ReadJSONL[Event](path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != total || all[len(all)-1].Type != EventTerminal {
		t.Fatalf("persisted %d events (last %q), want the full %d ending in terminal",
			stats.Records, all[len(all)-1].Type, total)
	}
}

// scripted installs a run function the test drives through channels:
// it emits the first frame immediately, the rest after step closes,
// and returns after release closes.
func scripted(t *testing.T, s *Server, frames []exec.ProgressFrame) (step, release func()) {
	t.Helper()
	stepCh, relCh := make(chan struct{}), make(chan struct{})
	var stepOnce, relOnce sync.Once
	step = func() { stepOnce.Do(func() { close(stepCh) }) }
	// release implies step: the run cannot return while still parked on
	// the step gate.
	release = func() { step(); relOnce.Do(func() { close(relCh) }) }
	t.Cleanup(release)
	s.run = func(ctx context.Context, spec JobSpec, canonical, key string, base uint64, progress func(exec.ProgressFrame)) (*artifacts, error) {
		progress(frames[0])
		<-stepCh
		for _, f := range frames[1:] {
			progress(f)
		}
		<-relCh
		p := []byte(`{"app":"` + spec.App + `"}`)
		return &artifacts{payload: p, hash: obs.Hash(string(p))}, nil
	}
	return step, release
}

// sseReader parses a text/event-stream body one event at a time.
type sseReader struct{ r *bufio.Reader }

func (s *sseReader) next() (event, data string, err error) {
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event != "" || data != "" {
				return event, data, nil
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// The SSE contract: progress frames with strictly increasing seq
// (coalesced to the latest under backlog), then exactly one done event
// with the terminal status, then a clean EOF.
func TestSSEStream(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	step, release := scripted(t, s, []exec.ProgressFrame{
		{Done: 1, Total: 3}, {Done: 2, Total: 3}, {Done: 3, Total: 3},
	})

	_, body, _ := submit(t, hs, quickSpec())
	id := body["id"].(string)

	resp, err := http.Get(hs.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	sse := &sseReader{r: bufio.NewReader(resp.Body)}

	// First frame replays on connect (it was emitted at run start,
	// possibly before the stream attached).
	ev, data, err := sse.next()
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	if err := json.Unmarshal([]byte(data), &prog); err != nil {
		t.Fatalf("bad progress payload %q: %v", data, err)
	}
	if ev != "progress" || prog.Done != 1 || prog.Total != 3 {
		t.Fatalf("first event %s %+v, want progress Done=1/3", ev, prog)
	}
	lastSeq := prog.Seq

	// Release the remaining frames and read until the latest (Done=3)
	// arrives; intermediate frames may coalesce away, but seq must
	// only ever increase.
	step()
	for prog.Done != 3 {
		ev, data, err = sse.next()
		if err != nil {
			t.Fatal(err)
		}
		if ev != "progress" {
			t.Fatalf("event %q before the final frame", ev)
		}
		if err := json.Unmarshal([]byte(data), &prog); err != nil {
			t.Fatal(err)
		}
		if prog.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", prog.Seq, lastSeq)
		}
		lastSeq = prog.Seq
	}

	// Terminal: one done event carrying the final status, then EOF —
	// the server closes the stream, not the client.
	release()
	ev, data, err = sse.next()
	if err != nil {
		t.Fatal(err)
	}
	if ev != "done" {
		t.Fatalf("event after terminal = %q, want done", ev)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(data), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.ID != id {
		t.Fatalf("done payload %+v", st)
	}
	if _, _, err := sse.next(); err != io.EOF {
		t.Fatalf("after done: err = %v, want clean EOF", err)
	}
}

// A client connecting after the job is terminal gets just the done
// event.
func TestSSEAfterTerminal(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	step, release := scripted(t, s, []exec.ProgressFrame{{Done: 1, Total: 1}})
	_, body, _ := submit(t, hs, quickSpec())
	id := body["id"].(string)
	step()
	release()
	if code, _, _ := fetchResult(t, hs, id); code != http.StatusOK {
		t.Fatal("job did not finish")
	}

	resp, err := http.Get(hs.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse := &sseReader{r: bufio.NewReader(resp.Body)}
	ev, _, err := sse.next()
	if err != nil || ev != "done" {
		t.Fatalf("first event on a terminal job = %q (%v), want done", ev, err)
	}
	if _, _, err := sse.next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// ?wait=1&seq=N long-polls for the next progress frame; plain ?wait=1
// still means terminal-only.
func TestStatusLongPollSeq(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	_, release := scripted(t, s, []exec.ProgressFrame{{Done: 1, Total: 2}, {Done: 2, Total: 2}})
	_, body, _ := submit(t, hs, quickSpec())
	id := body["id"].(string)

	// seq=0 unblocks on the first frame, while the job still runs.
	resp, err := http.Get(hs.URL + "/jobs/" + id + "?wait=1&seq=0")
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State.Terminal() {
		t.Fatalf("seq=0 poll returned a terminal state %s — it waited for the end, not the frame", st.State)
	}
	if st.Progress == nil || st.Progress.Seq < 1 || st.Progress.Done != 1 {
		t.Fatalf("seq=0 poll without the frame: %+v", st.Progress)
	}

	// A malformed seq is a client error.
	resp, err = http.Get(hs.URL + "/jobs/" + id + "?wait=1&seq=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seq=banana → %d, want 400", resp.StatusCode)
	}

	// Plain ?wait=1 blocks to terminal even though frames exist.
	done := make(chan JobStatus, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/jobs/" + id + "?wait=1")
		if err != nil {
			done <- JobStatus{}
			return
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		done <- st
	}()
	release()
	if st := <-done; st.State != StateDone {
		t.Fatalf("?wait=1 returned state %s, want done", st.State)
	}
}

// /metricz serves a parseable Prometheus exposition whose counters
// agree with /statz, and /statz carries the new uptime and per-state
// occupancy fields.
func TestMetriczAndStatz(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	step, release := scripted(t, s, []exec.ProgressFrame{{Done: 1, Total: 1}})
	spec := quickSpec()
	_, b1, _ := submit(t, hs, spec)
	step()
	release()
	if code, _, _ := fetchResult(t, hs, b1["id"].(string)); code != http.StatusOK {
		t.Fatal("fresh job failed")
	}
	_, b2, _ := submit(t, hs, spec) // content-addressed hit
	if code, _, _ := fetchResult(t, hs, b2["id"].(string)); code != http.StatusOK {
		t.Fatal("cached job failed")
	}

	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q lacks the exposition version", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"streamd_jobs_accepted 2",
		"streamd_jobs_done 2",
		"streamd_jobs_by_state_done 2",
		"streamd_cache_hits 1",
		"streamd_cache_misses 1",
		"# TYPE streamd_queue_wait_ms histogram",
		`streamd_run_ms_bucket{le="+Inf"}`,
		"streamd_run_ms_p95",
		"streamd_uptime_sec",
		"streamd_queue_depth 0",
		// The self-observation plane rides the same scrape: build
		// identity, Go runtime telemetry and the SLO burn gauges.
		"streamd_build_info{",
		"go_goroutines ",
		"go_heap_inuse_bytes ",
		"# TYPE go_gc_pause_us histogram",
		"slo_run_latency_burn_5m ",
		"slo_availability_sli_1h ",
		"slo_healthy 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metricz missing %q", want)
		}
	}

	// A Prometheus scraper rejects the whole exposition if two metric
	// families share a name (PromName is lossy: dotted registry names
	// can flatten onto each other), so every # TYPE line must be
	// unique. This is the regression guard for the per-state gauges
	// vs terminal counters collision (streamd.jobs.done vs
	// streamd.jobs_done → streamd_jobs_done).
	families := make(map[string]string)
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Errorf("malformed TYPE line %q", line)
			continue
		}
		name, kind := fields[2], fields[3]
		if prev, dup := families[name]; dup {
			t.Errorf("duplicate metric family %q (%s and %s)", name, prev, kind)
		}
		families[name] = kind
	}

	resp, err = http.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.UptimeSec <= 0 {
		t.Errorf("uptime_sec = %v, want > 0", stats.UptimeSec)
	}
	if stats.JobsByState["done"] != 2 {
		t.Errorf("jobs_by_state %v, want done:2", stats.JobsByState)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Errorf("cache stats %d/%d, want 1 hit 1 miss", stats.CacheHits, stats.CacheMisses)
	}
	if stats.BuildInfo["goversion"] == "" {
		t.Errorf("statz build_info missing goversion: %v", stats.BuildInfo)
	}
}
