package obs

import (
	"fmt"
	"hash/fnv"
)

// This file implements the durable half of the observability layer: an
// append-only run ledger in the shared JSONL log format (jsonl.go).
// Every benchmark or trace run appends one self-describing line — what
// ran, under which configuration and commit, how long it took in
// wall-clock and simulated cycles, and what the metrics and recovery
// machinery recorded — so performance history accumulates across
// sessions in a greppable, diffable file that the trend report
// (trend.go) rolls up.

// LedgerSchema is the current entry schema version. Readers accept any
// version in [LedgerMinSchema, LedgerSchema] — older histories stay
// readable — and writers always stamp the current version. Bump it
// when a field changes meaning.
//
// History:
//
//	v1: initial schema.
//	v2: Metrics may carry the coverage profiler's flattened keys
//	    (coverage.*, bw.*) alongside the existing exec.*/sim.* ones.
//	    Purely additive — v1 entries remain valid v2 inputs.
//
// Entries written before the simulator had a single memory model also
// carry "fast_path" and coverage.fastpath_pct/coverage.bail.* metrics;
// readers ignore the field and the keys are plain metrics.
const LedgerSchema = 2

// LedgerMinSchema is the oldest entry version readers still accept.
const LedgerMinSchema = 1

// LedgerEntry is one run's durable record. All maps use deterministic
// (sorted-key) JSON encoding, so identical runs produce identical lines
// apart from Time/WallNs.
type LedgerEntry struct {
	Schema     int    `json:"schema"`
	Time       string `json:"time,omitempty"` // RFC3339, caller-stamped
	Experiment string `json:"experiment"`
	Config     string `json:"config,omitempty"`      // human-readable config summary
	ConfigHash string `json:"config_hash,omitempty"` // Hash of the canonical config
	Commit     string `json:"commit,omitempty"`      // git describe --always --dirty
	Quick      bool   `json:"quick,omitempty"`
	Parallel   int    `json:"parallel,omitempty"`

	WallNs          int64   `json:"wall_ns"`              // host wall-clock for the run
	SimCycles       uint64  `json:"sim_cycles,omitempty"` // total simulated cycles
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`

	OutputHash     string             `json:"output_hash,omitempty"` // hash of the run's report text
	Metrics        map[string]float64 `json:"metrics,omitempty"`
	Recovery       map[string]uint64  `json:"recovery,omitempty"`
	FaultTraceHash string             `json:"fault_trace_hash,omitempty"`

	Source string            `json:"source,omitempty"` // which tool wrote the line
	Extra  map[string]string `json:"extra,omitempty"`
}

// Validate checks the entry satisfies the schema invariants the
// history tooling relies on.
func (e LedgerEntry) Validate() error {
	if e.Schema < LedgerMinSchema || e.Schema > LedgerSchema {
		return fmt.Errorf("obs: ledger entry schema %d, want %d..%d", e.Schema, LedgerMinSchema, LedgerSchema)
	}
	if e.Experiment == "" {
		return fmt.Errorf("obs: ledger entry without an experiment name")
	}
	if e.WallNs < 0 {
		return fmt.Errorf("obs: ledger entry %q has negative wall_ns %d", e.Experiment, e.WallNs)
	}
	return nil
}

// Hash returns a short stable FNV-1a hex digest of the given parts —
// the ledger's config/output/fault-trace fingerprint helper.
func Hash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // separator so ("ab","c") != ("a","bc")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// FlattenSnapshot reduces a metrics snapshot to one representative
// float per instrument for the ledger: counter totals, gauge current
// values and histogram means.
func FlattenSnapshot(s Snapshot) map[string]float64 {
	if len(s) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s))
	for name, v := range s {
		switch v.Kind {
		case KindHistogram:
			out[name] = v.Mean()
		case KindInfo:
			// Constant-1 info metrics carry their facts in labels; a
			// flat 1 would only pollute the ledger.
		default:
			out[name] = v.Value
		}
	}
	return out
}
