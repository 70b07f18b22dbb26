package streamd

import (
	"fmt"
	"sync"
	"time"

	"streamgpp/internal/obs"
)

// This file is the job lifecycle event log: one structured record per
// state-machine edge, kept in memory for GET /jobs/{id}/events and
// appended next to the run ledger so a crashed server's last moments
// are reconstructable. The file is an obs.JSONL log, so it shares the
// ledger's format and crash policy (DESIGN.md §11, §16); read it with
// obs.ReadJSONL[Event].

// The event types, in the order a job can emit them. A cache-hit job
// goes submit → admit → terminal (no start); a shed job likewise.
// reject is emitted for submissions refused at admission (queue full):
// the job ID is burned but the job never enters the state machine.
const (
	EventSubmit   = "submit"   // accepted into the job queue
	EventReject   = "reject"   // refused at admission, no job created
	EventAdmit    = "admit"    // claimed by a worker
	EventStart    = "start"    // simulator running (always a cache miss)
	EventRetry    = "retry"    // a strip retry inside the run (fault recovery)
	EventTerminal = "terminal" // reached a terminal state
)

// Event is one job lifecycle record.
//
// Timestamps: TNs is monotonic nanoseconds since *this server process*
// started — durations between a job's events are exact, but TNs is not
// comparable across restarts. Seq is file-global and strictly
// increasing, surviving restarts (a reopened log continues from the
// last persisted Seq), so Seq — not TNs — is the cross-restart order.
// Time is wall-clock RFC3339Nano for humans and is not used for
// ordering anywhere.
type Event struct {
	Seq  uint64 `json:"seq"`
	TNs  int64  `json:"t_ns"`
	Time string `json:"time,omitempty"`
	Job  string `json:"job"`
	Type string `json:"type"`
	// State is the job's state after the transition (terminal events
	// carry the terminal state: done, failed, timed-out or shed).
	State State  `json:"state,omitempty"`
	App   string `json:"app,omitempty"`
	Key   string `json:"key,omitempty"` // canonical config hash
	// Cache is the disposition on terminal events: "hit" or "miss".
	Cache string `json:"cache,omitempty"`
	// Retries is the run's cumulative strip-retry count at the event.
	Retries uint64 `json:"retries,omitempty"`
	// Error carries the structured failure on failed/timed-out/shed
	// terminal events.
	Error *JobError `json:"error,omitempty"`
}

// Validate rejects records that cannot have been written by this log.
func (e Event) Validate() error {
	if e.Job == "" {
		return fmt.Errorf("streamd: event seq %d without a job ID", e.Seq)
	}
	if e.Type == "" {
		return fmt.Errorf("streamd: event seq %d without a type", e.Seq)
	}
	return nil
}

// In-memory retention: the per-job index exists to serve GET
// /jobs/{id}/events, and a fault-storm job can emit one retry event
// per recovered strip — thousands of events on a big run. The index
// therefore keeps at most maxJobEvents per job: the first
// jobEventsHead events (submit/admit/start always survive) plus the
// most recent tail (the terminal event always survives), evicting the
// oldest mid-history event — in practice a retry — once the cap is
// hit. Eviction touches only the in-memory view; every event is still
// written to the JSONL file, so the persistent record stays complete
// and `streamtrace -events` sees the full history.
const (
	maxJobEvents  = 512
	jobEventsHead = 64
)

// eventLog is the in-process log: an in-memory per-job index serving
// GET /jobs/{id}/events plus an optional JSONL append file.
type eventLog struct {
	mu      sync.Mutex
	f       *obs.JSONL[Event] // nil when persistence is disabled or closed
	start   time.Time
	seq     uint64
	byJob   map[string][]Event
	errs    uint64 // append write failures (events dropped from the file, never from memory)
	evicted uint64 // events aged out of the in-memory index (never from the file)
}

// newEventLog opens the log. A non-empty path enables persistence
// through obs.OpenJSONL, which truncates a torn tail before the first
// append; Seq resumes after the last committed event.
func newEventLog(path string) (*eventLog, error) {
	l := &eventLog{start: time.Now(), byJob: make(map[string][]Event)}
	if path == "" {
		return l, nil
	}
	f, last, _, err := obs.OpenJSONL[Event](path)
	if err != nil {
		return nil, fmt.Errorf("streamd: event log unusable: %w", err)
	}
	l.f, l.seq = f, last.Seq
	return l, nil
}

// append stamps and records one event. The write failure mode is
// asymmetric by design: a full disk drops the event from the *file*
// (counted in errs) but not from memory — the live API stays
// available while the persistent record degrades, exactly like the
// run ledger's append-failure policy. The converse asymmetry is the
// retention cap above: memory may age out old mid-history events
// (counted in evicted) while the file keeps everything.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	e.TNs = time.Since(l.start).Nanoseconds()
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	hist := append(l.byJob[e.Job], e)
	if len(hist) > maxJobEvents {
		copy(hist[jobEventsHead:], hist[jobEventsHead+1:])
		hist = hist[:len(hist)-1]
		l.evicted++
	}
	l.byJob[e.Job] = hist
	if l.f != nil && l.f.Append(e) != nil {
		l.errs++
	}
}

// jobEvents returns the job's events in emission order.
func (l *eventLog) jobEvents(id string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.byJob[id]))
	copy(out, l.byJob[id])
	return out
}

// dropped reports file-append failures.
func (l *eventLog) dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errs
}

// closeFile syncs and closes the file (called from Drain, after the
// last worker exits — no event can follow it).
func (l *eventLog) closeFile() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
