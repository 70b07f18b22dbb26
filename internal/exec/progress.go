package exec

// This file defines the live-progress hook the stream executors feed:
// one ProgressFrame per completed strip task, reported from the same
// task-end sites as the timeline sampler (timeline.go). Like the
// sampler, the hook is strictly read-only with respect to simulated
// time — it fires after the task's cycles are already accounted, reads
// completed/total counts and the recovery tally, and never touches a
// CPU clock or the memory system — so enabling it cannot perturb
// timing: the golden outputs and the ledger's sim-cycle gates hold
// with or without a hook attached (DESIGN.md §16). streamd uses
// it to serve mid-run progress over long-poll and SSE.

// ProgressFrame is one mid-run progress report from a stream run.
type ProgressFrame struct {
	// Done and Total count strip tasks: Done is how many have
	// completed, Total the schedule's task count. Done == Total on the
	// final frame of a successful run. A degraded run (2ctx → 1ctx
	// fallback) restarts the schedule, so Done resets once.
	Done  int
	Total int
	// Phase and Strip locate the task that just completed.
	Phase int
	Strip int
	// Cycle is the completing context's simulated clock at the report.
	Cycle uint64
	// Retries is the run's cumulative strip-retry count (recovery
	// activity under fault injection; 0 on fault-free runs).
	Retries uint64
}
