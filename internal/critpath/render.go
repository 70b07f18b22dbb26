package critpath

import (
	"fmt"
	"io"
	"sort"

	"streamgpp/internal/obs"
)

// PerfettoTrack is the track number the critical path exports to —
// well above the hardware contexts so it renders as its own timeline.
const PerfettoTrack = 9

// PerfettoTrackName labels the critical-path track in the viewer.
const PerfettoTrackName = "critical path"

// Spans converts the path to Perfetto spans on the given track, so the
// longest path renders as a highlighted timeline above the per-context
// tracks: execution segments keep their task name, wait and recovery
// segments are labelled by kind.
func (p *Path) Spans(track int) []obs.Span {
	spans := make([]obs.Span, 0, len(p.Segments))
	for _, s := range p.Segments {
		name := s.Task
		switch s.Kind {
		case SegDepWait, SegQueueWait, SegRecovery:
			name = s.Kind.String() + " (" + s.Task + ")"
		}
		spans = append(spans, obs.Span{
			Name:  name,
			Cat:   "critpath-" + s.Kind.String(),
			Track: track,
			Start: s.Start,
			Dur:   s.Cycles(),
			Args:  map[string]int64{"phase": int64(s.Phase), "ctx": int64(s.Ctx), "task": int64(s.TaskID)},
		})
	}
	return spans
}

// Flatten exports the path summary as flat metric keys, following the
// run-ledger flattening conventions (obs.FlattenSnapshot): dots for
// hierarchy, one float per key.
func (p *Path) Flatten() map[string]float64 {
	out := map[string]float64{
		"critpath.length":       float64(p.Length),
		"critpath.makespan":     float64(p.Makespan),
		"critpath.max_ctx_busy": float64(p.MaxCtxBusy),
		"critpath.segments":     float64(len(p.Segments)),
	}
	if p.Makespan > 0 {
		out["critpath.frac_of_makespan"] = float64(p.Length) / float64(p.Makespan)
	}
	for k, cyc := range p.ByKind() {
		out["critpath.seg."+k.String()] = float64(cyc)
	}
	return out
}

// Render writes the path report: totals, per-kind attribution, the
// per-task table and the topk longest individual segments.
func (p *Path) Render(w io.Writer, topk int) {
	pct := func(cyc uint64) float64 {
		if p.Length == 0 {
			return 0
		}
		return 100 * float64(cyc) / float64(p.Length)
	}
	fmt.Fprintf(w, "critical path: %d cycles", p.Length)
	if p.Makespan > 0 {
		fmt.Fprintf(w, " (%.1f%% of %d-cycle makespan)", 100*float64(p.Length)/float64(p.Makespan), p.Makespan)
	}
	fmt.Fprintf(w, ", %d segments, bound: %s\n", len(p.Segments), p.Bound())

	byKind := p.ByKind()
	fmt.Fprintf(w, "  by kind:")
	for _, k := range SegKinds() {
		if cyc := byKind[k]; cyc > 0 {
			fmt.Fprintf(w, "  %s %d (%.0f%%)", k, cyc, pct(cyc))
		}
	}
	fmt.Fprintln(w)

	type kv struct {
		name string
		cyc  uint64
	}
	var rows []kv
	for name, cyc := range p.ByTask() {
		rows = append(rows, kv{name, cyc})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cyc != rows[j].cyc {
			return rows[i].cyc > rows[j].cyc
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintln(w, "  by task (waits attributed to the waiting task):")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-24s %12d  %5.1f%%\n", r.name, r.cyc, pct(r.cyc))
	}

	if topk > 0 {
		segs := make([]Segment, len(p.Segments))
		copy(segs, p.Segments)
		sort.SliceStable(segs, func(i, j int) bool { return segs[i].Cycles() > segs[j].Cycles() })
		if topk > len(segs) {
			topk = len(segs)
		}
		fmt.Fprintf(w, "  top %d segments:\n", topk)
		for _, s := range segs[:topk] {
			fmt.Fprintf(w, "    %-10s %-20s ctx%d phase%d [%d, %d) %10d cycles\n",
				s.Kind, s.Task, s.Ctx, s.Phase, s.Start, s.End, s.Cycles())
		}
	}
}
