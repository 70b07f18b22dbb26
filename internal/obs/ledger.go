package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// This file implements the durable half of the observability layer: an
// append-only JSONL run ledger. Every benchmark or trace run appends
// one self-describing line — what ran, under which configuration and
// commit, how long it took in wall-clock and simulated cycles, and
// what the metrics and recovery machinery recorded — so performance
// history accumulates across sessions in a greppable, diffable file
// that the regression gate (regress.go) can compare against.

// LedgerSchema is the current entry schema version. Readers accept any
// version in [LedgerMinSchema, LedgerSchema] — older baselines stay
// comparable — and writers always stamp the current version. Bump it
// when a field changes meaning.
//
// History:
//
//	v1: initial schema.
//	v2: Metrics may carry the coverage profiler's flattened keys
//	    (coverage.*, bw.*) alongside the existing exec.*/sim.* ones.
//	    Purely additive — v1 entries remain valid v2 inputs, and the
//	    regression gate's metric checks skip entries (either side)
//	    that lack a gated key.
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

// Validate checks the entry satisfies the schema invariants the gate
// and history tooling rely on.
func (e *LedgerEntry) Validate() error {
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

// AppendLedger validates e and appends it as one JSON line to the file
// at path, creating the file if needed. Appends are atomic at the line
// level for the file sizes at hand (single short write).
func AppendLedger(path string, e LedgerEntry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("obs: marshalling ledger entry: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: opening ledger: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("obs: appending to ledger: %w", err)
	}
	return f.Close()
}

// LedgerStats reports what a lenient ledger read encountered beyond
// the entries themselves.
type LedgerStats struct {
	// Entries is how many valid entries were read.
	Entries int
	// TornTail is true when the final line was unparseable JSON — the
	// torn-write signature of a writer killed mid-append — and was
	// skipped rather than failing the read.
	TornTail bool
	// TornLine is the 1-based line number of the skipped tail line.
	TornLine int
}

// ReadLedger parses every entry in the JSONL file at path, oldest
// first. Blank lines are skipped; a malformed or schema-mismatched line
// fails with its line number so a corrupted ledger is diagnosable —
// except a malformed *final* line, which is tolerated as a torn write
// (see ParseLedgerStats).
func ReadLedger(path string) ([]LedgerEntry, error) {
	entries, _, err := ReadLedgerStats(path)
	return entries, err
}

// ReadLedgerStats is ReadLedger plus torn-tail accounting.
func ReadLedgerStats(path string) ([]LedgerEntry, LedgerStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LedgerStats{}, fmt.Errorf("obs: opening ledger: %w", err)
	}
	defer f.Close()
	return ParseLedgerStats(f)
}

// ParseLedger is ReadLedger over an arbitrary reader.
func ParseLedger(r io.Reader) ([]LedgerEntry, error) {
	entries, _, err := ParseLedgerStats(r)
	return entries, err
}

// ParseLedgerStats parses a JSONL ledger, tolerating exactly one kind
// of damage: a final line that does not parse as JSON. That is the
// crash-consistency case — AppendLedger writes line+'\n' in one write,
// so a writer killed mid-append (streamd on SIGKILL, a powered-off
// host) leaves a prefix of the last line and nothing else. Such a tail
// is skipped and counted in LedgerStats rather than failing the whole
// file. Unparseable JSON anywhere *before* the last line, or a
// well-formed line that fails schema Validate, is still a hard error:
// those are corruption, not a torn write. (A crash followed by a
// blind append would glue the next entry onto the torn prefix and turn
// it into mid-file corruption — writers that reopen a ledger should
// call RepairLedger first, as streamd does.)
func ParseLedgerStats(r io.Reader) ([]LedgerEntry, LedgerStats, error) {
	var out []LedgerEntry
	var stats LedgerStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	// A JSON parse failure is held pending until we know whether more
	// content follows: at EOF it is a tolerated torn tail, mid-file it
	// is corruption.
	var pendingErr error
	pendingLine := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			return out, stats, fmt.Errorf("obs: ledger line %d: %w", pendingLine, pendingErr)
		}
		var e LedgerEntry
		if err := json.Unmarshal(line, &e); err != nil {
			pendingErr, pendingLine = err, lineno
			continue
		}
		if err := e.Validate(); err != nil {
			return out, stats, fmt.Errorf("obs: ledger line %d: %w", lineno, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, stats, fmt.Errorf("obs: reading ledger: %w", err)
	}
	if pendingErr != nil {
		stats.TornTail = true
		stats.TornLine = pendingLine
	}
	stats.Entries = len(out)
	return out, stats, nil
}

// RepairLedger truncates a torn final line from the ledger at path,
// rewriting the file with only its valid entries. It returns whether a
// torn tail was removed. Call before reopening a ledger for appends:
// appending after a torn line would glue two records onto one line and
// turn a recoverable torn write into unrecoverable corruption.
func RepairLedger(path string) (bool, error) {
	entries, stats, err := ReadLedgerStats(path)
	if err != nil {
		return false, err
	}
	if !stats.TornTail {
		return false, nil
	}
	if err := WriteLedger(path, entries); err != nil {
		return true, fmt.Errorf("obs: repairing ledger: %w", err)
	}
	return true, nil
}

// WriteLedger writes entries as JSONL to path, replacing any existing
// file — used to write a fresh baseline for the regression gate.
func WriteLedger(path string, entries []LedgerEntry) error {
	var buf []byte
	for i := range entries {
		if err := entries[i].Validate(); err != nil {
			return err
		}
		line, err := json.Marshal(entries[i])
		if err != nil {
			return fmt.Errorf("obs: marshalling ledger entry: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("obs: writing ledger: %w", err)
	}
	return nil
}

// ValidateLedgerFile checks every line of the ledger at path, returning
// how many entries it holds. The check.sh schema gate calls this. A
// torn final line is tolerated (it is the expected crash artifact, and
// every reader skips it identically); callers wanting to surface the
// warning use ReadLedgerStats.
func ValidateLedgerFile(path string) (int, error) {
	entries, err := ReadLedger(path)
	return len(entries), err
}
