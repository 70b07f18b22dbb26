package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// This file owns the on-disk format every durable log in the repo
// shares — the run ledger (ledger.go) and streamd's job event log — and
// its crash policy (DESIGN.md §11).
//
// A log is JSONL: one JSON record per line. The commit rule is that a
// record is committed once its terminating '\n' is on disk. Appends
// write record+'\n' in one write, so a writer killed mid-append leaves
// at most one uncommitted tail after the last '\n' — possibly the whole
// record minus only its newline. Readers skip that tail and report it;
// OpenJSONL truncates the file after its last '\n' before the first
// append, so a new record never lands on a torn line. That truncation
// is the only repair, so a crash during repair loses nothing. Damage
// inside the committed prefix — bad JSON, or a record failing Validate
// — is corruption, not a crash artifact, and fails the read with its
// line number.

// Record is a log record that checks its own invariants.
type Record interface{ Validate() error }

// LogStats reports what a read found beyond the records themselves.
type LogStats struct {
	// Records is how many valid committed records were read.
	Records int
	// TornTail is true when the file ended in an uncommitted line (no
	// terminating '\n') — the signature of a writer killed mid-append —
	// which was skipped; TornLine is its 1-based line number.
	TornTail bool
	TornLine int
}

// scanJSONL is the one JSONL reader. It calls each with every committed
// record, oldest first, and returns the read's stats plus the byte
// length of the committed prefix. Blank lines are skipped.
func scanJSONL[T Record](r io.Reader, each func(T)) (LogStats, int64, error) {
	var stats LogStats
	var committed int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	sc.Split(splitLines)
	for lineno := 1; sc.Scan(); lineno++ {
		line := sc.Bytes()
		if line[len(line)-1] != '\n' {
			stats.TornTail, stats.TornLine = true, lineno
			break
		}
		committed += int64(len(line))
		if len(line) == 1 {
			continue
		}
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			return stats, committed, fmt.Errorf("line %d: %w", lineno, err)
		}
		if err := rec.Validate(); err != nil {
			return stats, committed, fmt.Errorf("line %d: %w", lineno, err)
		}
		stats.Records++
		each(rec)
	}
	return stats, committed, sc.Err()
}

// splitLines is bufio.ScanLines keeping each line's '\n', so the reader
// can tell a committed line from an unterminated tail.
func splitLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// ReadJSONL reads every committed record of the log at path, oldest
// first, without modifying the file. A torn tail is skipped and
// reported in the stats.
func ReadJSONL[T Record](path string) ([]T, LogStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LogStats{}, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	var out []T
	stats, _, err := scanJSONL(f, func(rec T) { out = append(out, rec) })
	if err != nil {
		return out, stats, fmt.Errorf("obs: %s: %w", path, err)
	}
	return out, stats, nil
}

// JSONL is a log open for appends. It is safe for concurrent use.
type JSONL[T Record] struct {
	mu sync.Mutex
	f  *os.File // nil once closed
}

// OpenJSONL opens the log at path for appends, creating it if needed.
// It reads every committed record (corruption fails the open),
// truncates an uncommitted tail, and returns the last committed record
// (the zero T for an empty log) with the read's stats.
func OpenJSONL[T Record](path string) (*JSONL[T], T, LogStats, error) {
	var last T
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, last, LogStats{}, fmt.Errorf("obs: %w", err)
	}
	stats, committed, err := scanJSONL(f, func(rec T) { last = rec })
	if err == nil && stats.TornTail {
		// The repair is made durable before any append can follow it.
		if err = f.Truncate(committed); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, last, stats, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &JSONL[T]{f: f}, last, stats, nil
}

// Append validates rec and writes it as one line in a single write.
// Appends are not synced one by one; Close is the log's one fsync.
func (l *JSONL[T]) Append(rec T) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: marshalling record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("obs: append to closed log: %w", os.ErrClosed)
	}
	n, err := l.f.Write(append(line, '\n'))
	if err != nil && n > 0 {
		// A short write (a full disk) left part of a line; the next
		// append would glue onto it. Cut it off. Should that fail too,
		// the write error is still the one to report.
		if fi, serr := l.f.Stat(); serr == nil {
			_ = l.f.Truncate(fi.Size() - int64(n))
		}
	}
	return err
}

// Close syncs the log to stable storage and closes it. Closing a
// closed log is a no-op.
func (l *JSONL[T]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// AppendJSONL opens the log at path, appends recs and closes it: the
// one-shot writer for command-line tools.
func AppendJSONL[T Record](path string, recs ...T) error {
	l, _, _, err := OpenJSONL[T](path)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}
