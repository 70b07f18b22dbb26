//go:build unix

package obs

import (
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// A write cut short by the file-size limit (as by a full disk) must not
// leave part of a line for the next append to glue onto.
func TestJSONLShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, _, err := OpenJSONL[testRec](path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	rec := testRec{1, strings.Repeat("x", 30)} // 41 bytes with its newline
	lim := old
	lim.Cur = 100
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	var failed int
	for i := 0; i < 3; i++ {
		if l.Append(rec) != nil {
			failed++
		}
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("%d appends failed under a 100-byte limit, want the third", failed)
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadJSONL[testRec](path)
	if err != nil || stats.TornTail || len(got) != 3 {
		t.Fatalf("after a short write: %d records, stats %+v, err %v", len(got), stats, err)
	}
}
