package streamd

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"streamgpp/internal/obs"
)

// GET /sloz must serve the full report as JSON (the default) and as
// the operator table (?format=text), and an idle server is healthy.
func TestSlozEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})

	resp, err := http.Get(hs.URL + "/sloz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sloz = %d", resp.StatusCode)
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != len(DefaultSLOs()) {
		t.Fatalf("objectives = %d, want the %d defaults", len(rep.Objectives), len(DefaultSLOs()))
	}
	if !rep.Healthy {
		t.Error("idle server reported unhealthy")
	}
	for _, st := range rep.Objectives {
		if len(st.Windows) == 0 {
			t.Errorf("objective %s without windows", st.Name)
		}
		for _, ws := range st.Windows {
			if ws.SLI != 1 || ws.BurnRate != 0 {
				t.Errorf("%s/%s: SLI=%v burn=%v on an idle server", st.Name, ws.Window, ws.SLI, ws.BurnRate)
			}
		}
	}

	resp2, err := http.Get(hs.URL + "/sloz?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	text, _ := io.ReadAll(resp2.Body)
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text format Content-Type = %q", ct)
	}
	for _, want := range []string{"SLO report", "run-latency", "availability", "5m", "1h"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/sloz?format=text missing %q:\n%s", want, text)
		}
	}
}

// lockedBuffer lets concurrent handler goroutines share one slog sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Every request must produce one access-log line carrying the route
// pattern and status, job routes must carry job_id, and the HTTP
// counters the availability SLO reads must advance.
func TestAccessLogAndHTTPMetrics(t *testing.T) {
	var logbuf lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&logbuf, nil))
	s, hs := newTestServer(t, Options{Workers: 1, Logger: logger})

	_, body, _ := submit(t, hs, quickSpec())
	id := body["id"].(string)
	if code, b, _ := fetchResult(t, hs, id); code != http.StatusOK {
		t.Fatalf("run failed (%d): %s", code, b)
	}
	if _, err := http.Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}

	type line struct {
		Msg        string  `json:"msg"`
		Method     string  `json:"method"`
		Route      string  `json:"route"`
		Status     int     `json:"status"`
		DurationMs float64 `json:"duration_ms"`
		JobID      string  `json:"job_id"`
		ConfigHash string  `json:"config_hash"`
		State      string  `json:"state"`
	}
	var httpLines, jobLines []line
	for _, raw := range strings.Split(strings.TrimSpace(logbuf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("unparseable log line %q: %v", raw, err)
		}
		switch l.Msg {
		case "http":
			httpLines = append(httpLines, l)
		case "job":
			jobLines = append(jobLines, l)
		}
	}

	want := map[string]string{ // route -> expected job_id ("" = none)
		"POST /jobs":            id,
		"GET /jobs/{id}/result": id,
		"GET /healthz":          "",
	}
	for route, jobID := range want {
		var found bool
		for _, l := range httpLines {
			if l.Route != route {
				continue
			}
			found = true
			if l.Status == 0 || l.DurationMs < 0 {
				t.Errorf("%s: status=%d duration=%v", route, l.Status, l.DurationMs)
			}
			if l.JobID != jobID {
				t.Errorf("%s: job_id=%q, want %q", route, l.JobID, jobID)
			}
		}
		if !found {
			t.Errorf("no access-log line for %s in:\n%s", route, logbuf.String())
		}
	}

	// Lifecycle lines must join on the same keys the events and ledger
	// use, covering the full submit → terminal arc.
	states := map[string]bool{}
	for _, l := range jobLines {
		if l.JobID != id {
			continue
		}
		if l.ConfigHash == "" {
			t.Errorf("job line without config_hash: %+v", l)
		}
		states[l.State] = true
	}
	for _, st := range []string{"queued", "admitted", "running", "done"} {
		if !states[st] {
			t.Errorf("no job log line with state=%s (got %v)", st, states)
		}
	}

	// The SLO's HTTP instruments: all requests counted, none 5xx.
	snap := s.MetricsSnapshot()
	if n := snap["streamd.http.requests"].Value; n < 3 {
		t.Errorf("streamd.http.requests = %v, want >= 3", n)
	}
	if n := snap["streamd.http.responses_5xx"].Value; n != 0 {
		t.Errorf("streamd.http.responses_5xx = %v, want 0", n)
	}
	if snap["streamd.http.latency_ms"].Count == 0 {
		t.Error("streamd.http.latency_ms never observed")
	}
}

// /debug/pprof is flag-gated: absent by default, live with
// EnablePprof — and the goroutine profile must be a real profile.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without the flag = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Options{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("goroutine profile = %d, body %q", resp.StatusCode, body[:min(len(body), 80)])
	}
}

// A torn events-file tail that splits a multi-byte rune (the job app
// name is free-form UTF-8) must repair like any other torn tail: the
// partial line dropped, the reopened log appending cleanly after it.
func TestEventsTornTailMultibyteRune(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := newEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.append(Event{Job: "job-1", Type: EventSubmit, App: "QUICKSTART"})
	if err := l.closeFile(); err != nil {
		t.Fatal(err)
	}

	// Tear mid-rune: write a line whose tail ends inside the UTF-8
	// encoding of 'é' (0xC3 0xA9) — the crash left 0xC3 with no
	// continuation byte.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("{\"seq\":99,\"job\":\"job-caf\xc3")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	events, stats, err := obs.ReadJSONL[Event](path)
	if err != nil {
		t.Fatalf("mid-rune torn tail must not fail the read: %v", err)
	}
	if !stats.TornTail || stats.Records != 1 {
		t.Fatalf("stats %+v, want TornTail with 1 surviving event", stats)
	}
	if events[0].Job != "job-1" {
		t.Fatalf("surviving event %+v", events[0])
	}

	// Reopen repairs: the torn bytes are gone, appends parse cleanly.
	l2, err := newEventLog(path)
	if err != nil {
		t.Fatalf("reopen over mid-rune tear: %v", err)
	}
	l2.append(Event{Job: "job-2", Type: EventSubmit})
	if err := l2.closeFile(); err != nil {
		t.Fatal(err)
	}
	events, stats, err = obs.ReadJSONL[Event](path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTail || stats.Records != 2 {
		t.Fatalf("after repair: stats %+v, want 2 events and no torn tail", stats)
	}
	if events[1].Job != "job-2" || events[1].Seq <= events[0].Seq {
		t.Fatalf("post-repair append wrong: %+v", events[1])
	}
}
