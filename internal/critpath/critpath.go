// Package critpath is the causal profiler over a replayed stream
// execution: it reconstructs the task DAG from exec trace events (the
// recorded dependency edges, same-context serialization and queue
// admission), extracts the exact critical path through the run, and
// attributes its length to gather/kernel/scatter execution, dependency
// waits, queue waits and fault recovery. Because the simulator is
// deterministic the path is exact, not sampled — and the same frozen
// DAG answers counterfactuals (see whatif.go) by rescaling task
// durations and replaying the schedule analytically.
package critpath

import (
	"errors"
	"fmt"
	"sort"

	"streamgpp/internal/exec"
	"streamgpp/internal/wq"
)

// SegKind classifies one interval of the critical path.
type SegKind uint8

// Segment kinds: the three task kinds plus the three ways the path can
// sit idle between tasks.
const (
	SegGather SegKind = iota
	SegKernel
	SegScatter
	// SegDepWait is time the path's next task spent admitted but
	// blocked on a dependency that had not yet completed.
	SegDepWait
	// SegQueueWait is time the path's next task waited on the queue
	// machinery itself: not yet admitted by the control thread, or
	// ready but not yet claimed (dispatch/wakeup latency).
	SegQueueWait
	// SegRecovery is time lost to faulted execution attempts before
	// the task's final successful run.
	SegRecovery

	numSegKinds
)

var segNames = [numSegKinds]string{"gather", "kernel", "scatter", "dep-wait", "queue-wait", "recovery"}

// String returns the segment kind's name.
func (k SegKind) String() string { return segNames[k] }

// SegKinds lists every kind in declaration order, for stable iteration.
func SegKinds() []SegKind {
	out := make([]SegKind, numSegKinds)
	for i := range out {
		out[i] = SegKind(i)
	}
	return out
}

// kindSeg maps a task kind to its execution segment kind.
func kindSeg(k wq.Kind) SegKind {
	switch k {
	case wq.Gather:
		return SegGather
	case wq.KernelRun:
		return SegKernel
	default:
		return SegScatter
	}
}

// Segment is one half-open interval [Start, End) of the critical path.
// Wait and recovery segments carry the task that was waiting (the
// path's next task), so every cycle of the path is attributable.
type Segment struct {
	Kind   SegKind
	Task   string // full task name (strip suffix included)
	TaskID int
	Ctx    int
	Phase  int
	Start  uint64
	End    uint64
}

// Cycles returns the segment's length.
func (s Segment) Cycles() uint64 { return s.End - s.Start }

// node is one task of the reconstructed DAG.
type node struct {
	ev       exec.TraceEvent
	runStart uint64 // normalised RunStart (>= ev.Start)
	serial   int    // same-context predecessor index, -1 at chain head
	deps     []int  // dependency predecessor indices
}

// Graph is the task DAG of one analysed round of a traced execution.
type Graph struct {
	nodes []node

	// Base is the earliest queue admission of the round: the cycle the
	// schedule became able to make progress. Path lengths and waits are
	// measured from here.
	Base uint64
	// LastEnd is the last task completion of the round.
	LastEnd uint64
	// Makespan is the caller-supplied wall cycles of the whole run
	// (exec.Result.Cycles; for multi-step apps, the summed steps).
	Makespan uint64
	// Rounds is how many complete schedule executions the raw trace
	// held (multi-step apps re-run the program on a monotone clock;
	// a degraded run re-executes sequentially after an abort). Only
	// the last round is analysed.
	Rounds int
}

// Tasks returns the number of tasks in the analysed round.
func (g *Graph) Tasks() int { return len(g.nodes) }

// ErrEmptyTrace reports a trace with no events to analyse.
var ErrEmptyTrace = errors.New("critpath: empty trace")

// Build reconstructs the task DAG from a recorded trace. makespan is
// the run's total wall cycles (exec.Result.Cycles). Traces holding
// several rounds of the same schedule — multi-step applications, or a
// degraded run's aborted first attempt — are split on task-ID reuse
// and the last complete round is analysed.
func Build(tr *exec.Trace, makespan uint64) (*Graph, error) {
	if tr == nil || len(tr.Events) == 0 {
		return nil, ErrEmptyTrace
	}
	evs := tr.Events

	// The analysed round is the maximal suffix without a repeated task
	// ID: events are recorded at completion, so scanning backward stops
	// exactly at the previous round's last completion. This handles
	// both multi-step traces (every ID repeats each step) and degraded
	// runs (the sequential re-run repeats every ID the aborted attempt
	// completed).
	start := len(evs)
	seen := make(map[int]bool, len(evs))
	for i := len(evs) - 1; i >= 0; i-- {
		if seen[evs[i].ID] {
			break
		}
		seen[evs[i].ID] = true
		start = i
	}
	rounds := 1
	if start > 0 {
		// Count earlier rounds the same way, for reporting.
		for i := start - 1; i >= 0; {
			j := i
			inner := make(map[int]bool)
			for j >= 0 && !inner[evs[j].ID] {
				inner[evs[j].ID] = true
				j--
			}
			rounds++
			i = j
		}
	}

	g := &Graph{Rounds: rounds, Makespan: makespan}
	g.nodes = make([]node, 0, len(evs)-start)
	for _, e := range evs[start:] {
		n := node{ev: e, runStart: e.RunStart, serial: -1}
		if n.runStart < e.Start {
			n.runStart = e.Start // traces without retry provenance
		}
		if e.End < n.runStart {
			return nil, fmt.Errorf("critpath: task %d (%s) ends at %d before it starts at %d",
				e.ID, e.Name, e.End, n.runStart)
		}
		if e.Enqueue > e.Start {
			return nil, fmt.Errorf("critpath: task %d (%s) admitted at %d after it started at %d",
				e.ID, e.Name, e.Enqueue, e.Start)
		}
		g.nodes = append(g.nodes, n)
	}

	// Sort by (Start, End, ID): a topological order — every dependency
	// completes before its dependent starts, and same-context tasks
	// cannot overlap — used by both the path walk and the what-if
	// forward pass.
	sort.Slice(g.nodes, func(i, j int) bool {
		a, b := &g.nodes[i].ev, &g.nodes[j].ev
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.ID < b.ID
	})

	byID := make(map[int]int, len(g.nodes))
	for i := range g.nodes {
		byID[g.nodes[i].ev.ID] = i
	}

	lastOnCtx := map[int]int{}
	g.Base = g.nodes[0].ev.Enqueue
	for i := range g.nodes {
		n := &g.nodes[i]
		e := n.ev
		if e.Enqueue < g.Base {
			g.Base = e.Enqueue
		}
		if e.End > g.LastEnd {
			g.LastEnd = e.End
		}
		for _, d := range e.Deps {
			j, ok := byID[d]
			if !ok || j == i {
				continue // dependency outside the analysed round
			}
			p := &g.nodes[j].ev
			if p.End > e.Start {
				return nil, fmt.Errorf("critpath: task %d (%s) started at %d before dependency %d (%s) completed at %d",
					e.ID, e.Name, e.Start, p.ID, p.Name, p.End)
			}
			n.deps = append(n.deps, j)
		}
		if prev, ok := lastOnCtx[e.Ctx]; ok {
			if g.nodes[prev].ev.End > e.Start {
				return nil, fmt.Errorf("critpath: tasks %d and %d overlap on ctx%d",
					g.nodes[prev].ev.ID, e.ID, e.Ctx)
			}
			n.serial = prev
		}
		lastOnCtx[e.Ctx] = i
	}
	return g, nil
}

// bindingPred returns the predecessor whose completion bound the
// task's start in the recorded schedule: whichever constraint resolved
// last — the same-context predecessor freeing the context, or the
// latest-finishing dependency. Ties go to the serial predecessor (the
// context was the scarcer resource). pred is -1 for a chain head.
// tSer and tDep are the serial and latest-dependency completion
// cycles (0 when absent); depIdx the latest dependency's index (-1
// when the task has none).
func (g *Graph) bindingPred(n *node) (pred int, tSer, tDep uint64, depIdx int) {
	depIdx = -1
	for _, j := range n.deps {
		if end := g.nodes[j].ev.End; depIdx < 0 || end > tDep {
			tDep, depIdx = end, j
		}
	}
	if n.serial >= 0 {
		tSer = g.nodes[n.serial].ev.End
	}
	pred = n.serial
	if n.serial < 0 || (depIdx >= 0 && tDep > tSer) {
		pred = depIdx
	}
	return pred, tSer, tDep, depIdx
}

// Path is the critical path: a contiguous tiling of [Start, End) by
// segments, each cycle attributed to execution, waiting or recovery.
type Path struct {
	Segments []Segment
	// Start and End are absolute cycles (the round's base admission and
	// last completion); Length = End - Start = the sum of the segments.
	Start, End uint64
	Length     uint64
	// Makespan is the run's wall cycles, for the length <= makespan
	// invariant and percentage reporting.
	Makespan uint64
	// MaxCtxBusy is the largest per-context busy total of the round —
	// a lower bound on any schedule's critical path.
	MaxCtxBusy uint64
}

// CriticalPath walks the DAG backward from the last completion,
// following at every task the binding constraint — the predecessor
// (dependency or same-context) that finished last — and classifying
// every gap.
func (g *Graph) CriticalPath() *Path {
	p := &Path{Start: g.Base, End: g.LastEnd, Makespan: g.Makespan}
	if len(g.nodes) == 0 {
		return p
	}
	busy := map[int]uint64{}
	terminal := 0
	for i := range g.nodes {
		e := &g.nodes[i].ev
		busy[e.Ctx] += e.End - e.Start
		t := &g.nodes[terminal].ev
		if e.End > t.End || (e.End == t.End && e.Start > t.Start) {
			terminal = i
		}
	}
	for _, b := range busy {
		if b > p.MaxCtxBusy {
			p.MaxCtxBusy = b
		}
	}

	// Segments are collected walking backward in time, then reversed.
	var segs []Segment
	seg := func(kind SegKind, n *node, start, end uint64) {
		if end > start {
			e := n.ev
			segs = append(segs, Segment{Kind: kind, Task: e.Name, TaskID: e.ID,
				Ctx: e.Ctx, Phase: e.Phase, Start: start, End: end})
		}
	}
	cur := terminal
	for {
		n := &g.nodes[cur]
		e := n.ev
		seg(kindSeg(e.Kind), n, n.runStart, e.End)
		seg(SegRecovery, n, e.Start, n.runStart)

		pred, tSer, tDep, depIdx := g.bindingPred(n)
		if pred < 0 {
			// Chain head: everything back to the round base is queue
			// machinery (admission and dispatch).
			seg(SegQueueWait, n, g.Base, e.Start)
			break
		}
		if boundary := g.nodes[pred].ev.End; e.Start > boundary {
			kind := SegQueueWait
			switch {
			case e.Enqueue > tDep && e.Enqueue > tSer:
				// The task was not even in the queue when its other
				// constraints cleared: admission (the control thread)
				// was the binding constraint.
				kind = SegQueueWait
			case depIdx >= 0 && tDep >= tSer:
				kind = SegDepWait
			}
			seg(kind, n, boundary, e.Start)
		}
		cur = pred
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	p.Segments = segs
	p.Length = p.End - p.Start
	return p
}

// ByKind sums path cycles per segment kind.
func (p *Path) ByKind() map[SegKind]uint64 {
	out := map[SegKind]uint64{}
	for _, s := range p.Segments {
		out[s.Kind] += s.Cycles()
	}
	return out
}

// ByTask sums path cycles per task base name (strip suffix removed),
// waits included — the per-operation answer to "what is the run waiting
// for".
func (p *Path) ByTask() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range p.Segments {
		out[exec.BaseName(s.Task)] += s.Cycles()
	}
	return out
}

// ByPhase sums path cycles per schedule phase.
func (p *Path) ByPhase() map[int]uint64 {
	out := map[int]uint64{}
	for _, s := range p.Segments {
		out[s.Phase] += s.Cycles()
	}
	return out
}

// MemCycles returns the path cycles spent executing bulk memory tasks.
func (p *Path) MemCycles() uint64 {
	k := p.ByKind()
	return k[SegGather] + k[SegScatter]
}

// CompCycles returns the path cycles spent executing kernels.
func (p *Path) CompCycles() uint64 { return p.ByKind()[SegKernel] }

// WaitCycles returns the path cycles spent idle (dependency plus queue
// waits) or recovering.
func (p *Path) WaitCycles() uint64 {
	k := p.ByKind()
	return k[SegDepWait] + k[SegQueueWait] + k[SegRecovery]
}

// Bound names the path's limiting resource: "memory" when bulk
// gather/scatter execution dominates kernel execution on the path,
// "compute" otherwise. This is the measured counterpart of the
// advisor's EstMemCycles-vs-EstCompCycles verdict.
func (p *Path) Bound() string {
	if p.MemCycles() >= p.CompCycles() {
		return "memory"
	}
	return "compute"
}
