package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"streamgpp/internal/obs"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	id, parent int
	name       string
	iter       int // bundle iteration, service segment or job index
	track      int // 0 for the bundle and the first client, 1 for the second
	start, end time.Duration
}

// tracer times every call the benchmark makes. It always measures
// durations and samples the heap at span boundaries; only when on does
// it keep the spans and label the CPU profile with the span name.
type tracer struct {
	on     bool
	origin time.Time

	mu       sync.Mutex
	spans    []span
	nextID   int
	heapPeak uint64
	sample   []metrics.Sample
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now(), sample: []metrics.Sample{{Name: heapMetric}}}
}

// heapNow reads the bytes of heap objects, live and not yet swept.
func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (t *tracer) sampleHeap() {
	t.mu.Lock()
	metrics.Read(t.sample)
	if v := t.sample[0].Value.Uint64(); v > t.heapPeak {
		t.heapPeak = v
	}
	t.mu.Unlock()
}

// takePeak returns the highest heap sampled since the last call.
func (t *tracer) takePeak() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.heapPeak
	t.heapPeak = 0
	return p
}

// do runs fn as the span name, child of parent, and returns its
// duration. fn receives the span's id for its own children and a
// context carrying the span's profiler label.
func (t *tracer) do(ctx context.Context, name string, parent, iter, track int, fn func(ctx context.Context, id int) error) (time.Duration, error) {
	return t.record(ctx, true, name, parent, iter, track, fn)
}

// doUnlabelled is do without the profiler label, for calls that start
// long-lived goroutines (a server's workers and listener), which would
// otherwise carry the label for life.
func (t *tracer) doUnlabelled(ctx context.Context, name string, parent, iter, track int, fn func(ctx context.Context, id int) error) (time.Duration, error) {
	return t.record(ctx, false, name, parent, iter, track, fn)
}

func (t *tracer) record(ctx context.Context, label bool, name string, parent, iter, track int, fn func(ctx context.Context, id int) error) (time.Duration, error) {
	t.sampleHeap()
	var id int
	if t.on {
		t.mu.Lock()
		t.nextID++
		id = t.nextID
		t.mu.Unlock()
	}
	var err error
	start := time.Now()
	if t.on && label {
		pprof.Do(ctx, pprof.Labels("span", name), func(ctx context.Context) { err = fn(ctx, id) })
	} else {
		err = fn(ctx, id)
	}
	end := time.Now()
	t.sampleHeap()
	if t.on {
		t.mu.Lock()
		t.spans = append(t.spans, span{id: id, parent: parent, name: name, iter: iter, track: track,
			start: start.Sub(t.origin), end: end.Sub(t.origin)})
		t.mu.Unlock()
	}
	return end.Sub(start), err
}

// selfTimes returns, per span name, the total duration minus the part
// of each span's interval its direct children cover. Children of one
// span may overlap (the two service clients), so their union counts.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, reach time.Duration
		reach = s.start
		for _, k := range kids {
			start, end := max(k.start, reach), min(k.end, s.end)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		self[s.name] += s.end - s.start - covered
	}
	return self
}

func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	count := make(map[string]int)
	for _, s := range spans {
		count[s.name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-24s %8s %12s\n", "span", "count", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-24s %8d %12.2f\n", n, count[n], float64(self[n])/1e6)
	}
}

// writeTrace writes the spans as trace_event JSON (one track per
// client, times in microseconds).
func writeTrace(w io.Writer, workload string, spans []span) error {
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		out[i] = obs.Span{
			Name: s.name, Cat: "perfbench", Track: s.track,
			Start: uint64(s.start), Dur: uint64(s.end - s.start),
			Args: map[string]int64{"id": int64(s.id), "parent": int64(s.parent), "iter": int64(s.iter)},
		}
	}
	meta := obs.TraceMeta{
		Process:       "perfbench " + workload,
		Tracks:        map[int]string{0: "bundle / client 0", 1: "client 1"},
		CyclesPerUsec: 1000, // span times are nanoseconds
	}
	return obs.WriteTraceEvents(w, meta, out, nil)
}
