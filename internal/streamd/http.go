package streamd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"time"

	"streamgpp/internal/obs"
)

// Handler returns the server's HTTP API:
//
//	POST /jobs                submit a JobSpec; 202 + the JobStatus at
//	                          admission (state always queued, even if
//	                          a worker has picked the job up since),
//	                          400 (bad spec, message names the field),
//	                          429 + Retry-After (queue full),
//	                          503 (draining)
//	GET  /jobs/{id}           job status (JobStatus JSON, including the
//	                          latest progress frame once one exists).
//	                          ?wait=1 long-polls until the job is
//	                          terminal; ?wait=1&seq=N returns as soon
//	                          as a progress frame with seq > N lands
//	                          (or the job is terminal) — repeat with
//	                          the returned seq to follow a run without
//	                          busy polling.
//	GET  /jobs/{id}/events    the job's lifecycle event log (JSON
//	                          array of Event: submit/admit/start/
//	                          retry/terminal with monotonic t_ns)
//	GET  /jobs/{id}/stream    Server-Sent Events: one `progress` event
//	                          per frame (coalesced to the latest;
//	                          seq strictly increasing), then a single
//	                          `done` event carrying the terminal
//	                          JobStatus, then a clean close
//	GET  /jobs/{id}/result    result payload once done; add ?wait=1 to
//	                          block until the job is terminal.
//	                          202 while running, 409 + error for
//	                          failed/timed-out/shed jobs.
//	                          X-Streamd-Cache: hit|miss,
//	                          X-Streamd-Output-Hash: <hash>
//	GET  /jobs/{id}/trace     Perfetto trace (jobs submitted with
//	                          trace=true), else 404
//	GET  /jobs/{id}/coverage  coverage report (coverage=true), else 404
//	GET  /healthz             200 while the process lives
//	GET  /readyz              200 accepting, 503 draining
//	GET  /statz               counters (Stats JSON)
//	GET  /metricz             Prometheus text exposition (obs.WriteProm
//	                          over the server registry)
//	GET  /sloz                SLO evaluation (obs.SLOReport JSON:
//	                          per-objective windows, SLIs, burn rates,
//	                          budget spent); ?format=text renders the
//	                          operator table instead
//	GET  /debug/pprof/        net/http/pprof (goroutine, heap, profile,
//	                          trace, ...) — mounted only with
//	                          Options.EnablePprof
//
// Every route is wrapped in an access-log middleware: one structured
// log line per request (method, route pattern, status, duration, job
// id when the route touches one) plus the streamd.http.requests /
// streamd.http.responses_5xx counters and streamd.http.latency_ms
// histogram the availability SLO consumes.
//
// The /statz response is the Stats struct: uptime_sec; the admission
// counters accepted / rejected_full / rejected_draining; terminal
// counters done / failed / timed_out / shed and panics; cache_hits /
// cache_misses / cache_entries; queue_depth, workers, draining;
// jobs_by_state (live per-state occupancy, terminal states
// accumulating); ledger_entries and ledger_torn_tail_repaired. The
// same numbers — plus the queue-wait / admission / run-duration
// histograms with quantiles — are scrapable at /metricz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The mux pattern is passed alongside the handler because the
	// access log wants the route shape ("/jobs/{id}"), not the concrete
	// URL — go.mod still says 1.22, so http.Request.Pattern (1.23+) is
	// off the table.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.logged(pattern, h))
	}
	handle("POST /jobs", s.handleSubmit)
	handle("GET /jobs/{id}", s.handleStatus)
	handle("GET /jobs/{id}/events", s.handleEvents)
	handle("GET /jobs/{id}/stream", s.handleStream)
	handle("GET /jobs/{id}/result", s.handleResult)
	handle("GET /jobs/{id}/trace", s.handleArtifact("trace"))
	handle("GET /jobs/{id}/coverage", s.handleArtifact("coverage"))
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	handle("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	handle("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, s.MetricsSnapshot())
	})
	handle("GET /sloz", func(w http.ResponseWriter, r *http.Request) {
		rep := s.SLOReport()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.Render(w)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	if s.opts.EnablePprof {
		// Index also routes the named runtime/pprof profiles
		// (goroutine, heap, block, mutex, ...) under the prefix.
		handle("GET /debug/pprof/", netpprof.Index)
		handle("GET /debug/pprof/cmdline", netpprof.Cmdline)
		handle("GET /debug/pprof/profile", netpprof.Profile)
		handle("GET /debug/pprof/symbol", netpprof.Symbol)
		handle("GET /debug/pprof/trace", netpprof.Trace)
	}
	return mux
}

// statusWriter captures the response status (and any job ID a handler
// notes) for the access log. It implements http.Flusher by delegating,
// so the SSE handler's streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
	job  string
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *statusWriter) noteJob(id string) { sw.job = id }

// jobNoter lets a handler attach a job ID to the access-log line when
// the URL does not carry one (POST /jobs learns the ID only after
// admission).
type jobNoter interface{ noteJob(id string) }

// logged wraps a handler with the access log and the HTTP request
// metrics. pattern is the route as registered on the mux — the label
// the log line and any per-route analysis group by.
func (s *Server) logged(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK // handler wrote nothing: implicit 200
		}
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		s.reg.Counter("streamd.http.requests").Inc()
		if sw.code >= 500 {
			s.reg.Counter("streamd.http.responses_5xx").Inc()
		}
		s.reg.Histogram("streamd.http.latency_ms").Observe(ms)
		job := sw.job
		if job == "" {
			job = r.PathValue("id")
		}
		attrs := []any{
			"method", r.Method, "route", pattern,
			"status", sw.code, "duration_ms", ms,
		}
		if job != "" {
			attrs = append(attrs, "job_id", job)
		}
		s.log.Info("http", attrs...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string    `json:"error"`
	Job   *JobError `json:"job_error,omitempty"`
}

// maxSubmitBytes bounds a job submission body. A JobSpec encodes in a
// few hundred bytes, so the bound only stops a client from making the
// server buffer an arbitrarily large request.
const maxSubmitBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// The body must hold exactly one JSON value.
		if err = dec.Decode(&json.RawMessage{}); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the job object")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: "streamd: bad job JSON: " + err.Error()})
		return
	}
	job, admitted, err := s.submit(spec)
	switch {
	case err == nil:
		if n, ok := w.(jobNoter); ok {
			n.noteJob(job.ID)
		}
		writeJSON(w, http.StatusAccepted, admitted)
	case errors.Is(err, ErrFull):
		// Admission control: the bounded job queue is full. Retry-After
		// is the clients' backpressure signal.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		var ve *ValidationError
		if errors.As(err, &ve) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "streamd: no such job " + r.PathValue("id")})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	if q.Get("wait") != "" {
		// Plain ?wait=1 keeps its original meaning — block until
		// terminal. An explicit seq=N opts into progress-aware
		// unblocking: return on the first frame with Seq > N.
		afterSeq := ^uint64(0)
		if v := q.Get("seq"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: "streamd: bad seq " + strconv.Quote(v) + ": " + err.Error()})
				return
			}
			afterSeq = n
		}
		waitStatus(r, j, afterSeq)
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// waitStatus blocks until the job is terminal, a progress frame with
// Seq > afterSeq lands, or the request dies. afterSeq == MaxUint64
// (no seq param) can never be exceeded, giving terminal-only waiting.
func waitStatus(r *http.Request, j *Job, afterSeq uint64) {
	for {
		prog, ch := j.progress()
		if prog.Seq > afterSeq {
			return
		}
		select {
		case <-j.Done():
			return
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

// handleEvents serves the job's lifecycle event log.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	events := s.events.jobEvents(j.ID)
	if events == nil {
		events = []Event{}
	}
	writeJSON(w, http.StatusOK, events)
}

// handleStream serves Server-Sent Events for one job: a `progress`
// event per frame — coalesced to the latest when the client or the
// scheduler falls behind, seq strictly increasing — then exactly one
// `done` event with the terminal JobStatus, then EOF. A client
// connecting mid-run immediately receives the latest frame (if any)
// before blocking for the next; connecting after the job is terminal
// yields just the `done` event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streamd: connection does not support streaming"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var sent uint64 // seq of the last frame written
	for {
		prog, ch := j.progress()
		// Terminal wins over a pending frame: once the job is over no
		// progress event is emitted (the done payload carries the final
		// frame in JobStatus.Progress), so a client attaching late gets
		// exactly one done event.
		select {
		case <-j.Done():
			writeSSE(w, "done", j.Status())
			fl.Flush()
			return
		default:
		}
		if prog.Seq > sent {
			sent = prog.Seq
			writeSSE(w, "progress", prog)
			fl.Flush()
			continue // a newer frame may already have landed
		}
		select {
		case <-j.Done():
			writeSSE(w, "done", j.Status())
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

// writeSSE emits one Server-Sent Event with a JSON data payload.
func writeSSE(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Progress and JobStatus always marshal; defensive.
		b = []byte(`{"error":"marshal failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

// waitIfAsked blocks until the job is terminal when ?wait is set,
// bounded by the request's own context.
func waitIfAsked(r *http.Request, j *Job) {
	if r.URL.Query().Get("wait") == "" {
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	waitIfAsked(r, j)
	st := j.Status()
	switch {
	case st.State == StateDone:
		a, hit := j.result()
		cacheHeader := "miss"
		if hit {
			cacheHeader = "hit"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Streamd-Cache", cacheHeader)
		w.Header().Set("X-Streamd-Output-Hash", a.hash)
		w.WriteHeader(http.StatusOK)
		w.Write(a.payload)
	case st.State.Terminal():
		// Failed, timed out or shed: a structured error, never partial
		// output.
		writeJSON(w, http.StatusConflict, errorBody{
			Error: "streamd: job " + j.ID + " " + string(st.State),
			Job:   st.Error,
		})
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleArtifact serves the trace or coverage download.
func (s *Server) handleArtifact(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(w, r)
		if !ok {
			return
		}
		waitIfAsked(r, j)
		st := j.Status()
		if !st.State.Terminal() {
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		a, _ := j.result()
		var body []byte
		if a != nil {
			if kind == "trace" {
				body = a.trace
			} else {
				body = a.coverage
			}
		}
		if body == nil {
			writeJSON(w, http.StatusNotFound, errorBody{
				Error: "streamd: job " + j.ID + " has no " + kind + " artifact (submit with \"" + kind + "\": true)",
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}
}
