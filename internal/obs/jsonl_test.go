package obs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// testRec is a minimal log record: Name must be non-empty.
type testRec struct {
	N    int    `json:"n"`
	Name string `json:"name"`
}

func (r testRec) Validate() error {
	if r.Name == "" {
		return errors.New("record without a name")
	}
	return nil
}

// TestJSONLCrashPolicy is the shared log's contract, case by case: what
// a read returns, and what opening for append repairs. Every readable
// case must then take one more append and read back clean.
func TestJSONLCrashPolicy(t *testing.T) {
	a, b := `{"n":1,"name":"a"}`, `{"n":2,"name":"b"}`
	recA, recB := testRec{1, "a"}, testRec{2, "b"}
	cases := []struct {
		name     string
		text     string
		want     []testRec
		tornLine int    // 0: no torn tail
		errLine  string // non-empty: the read fails naming this line
	}{
		{name: "empty", text: "", want: nil},
		{name: "clean", text: a + "\n" + b + "\n", want: []testRec{recA, recB}},
		{name: "blank lines", text: a + "\n\n" + b + "\n", want: []testRec{recA, recB}},
		{name: "torn mid-record", text: a + "\n" + b[:7], want: []testRec{recA}, tornLine: 2},
		// The record parses, but without its newline it is not committed:
		// appending after it would glue two records onto one line.
		{name: "newline dropped", text: a + "\n" + b, want: []testRec{recA}, tornLine: 2},
		{name: "torn only line", text: a[:3], want: nil, tornLine: 1},
		// A torn tail may end inside a multi-byte UTF-8 rune ('é' is
		// 0xC3 0xA9; the crash left 0xC3 alone).
		{name: "torn mid-rune", text: a + "\n" + "{\"n\":3,\"name\":\"caf\xc3", want: []testRec{recA}, tornLine: 2},
		{name: "bad JSON mid-file", text: a + "\n{garbage\n" + b + "\n", errLine: "line 2"},
		{name: "bad JSON committed last", text: a + "\n{garbage\n", errLine: "line 2"},
		{name: "invalid last line", text: a + "\n" + `{"n":2}` + "\n", errLine: "line 2"},
		{name: "invalid mid-file", text: `{"n":2}` + "\n" + a + "\n", errLine: "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
			got, stats, err := ReadJSONL[testRec](path)
			if tc.errLine != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errLine) {
					t.Fatalf("read err = %v, want an error naming %s", err, tc.errLine)
				}
				// Corruption is never repaired: the open fails and leaves
				// the file as it was.
				if _, _, _, err := OpenJSONL[testRec](path); err == nil {
					t.Fatal("OpenJSONL accepted a corrupt log")
				}
				if b, _ := os.ReadFile(path); string(b) != tc.text {
					t.Fatalf("failed open modified the file: %q", b)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || stats.Records != len(tc.want) {
				t.Fatalf("read %+v (stats %+v), want %+v", got, stats, tc.want)
			}
			if stats.TornTail != (tc.tornLine > 0) || stats.TornLine != tc.tornLine {
				t.Fatalf("stats %+v, want torn line %d", stats, tc.tornLine)
			}

			l, last, ostats, err := OpenJSONL[testRec](path)
			if err != nil {
				t.Fatal(err)
			}
			if ostats != stats {
				t.Fatalf("open stats %+v, read stats %+v", ostats, stats)
			}
			var wantLast testRec
			if len(tc.want) > 0 {
				wantLast = tc.want[len(tc.want)-1]
			}
			if last != wantLast {
				t.Fatalf("last record %+v, want %+v", last, wantLast)
			}
			next := testRec{9, "next"}
			if err := l.Append(next); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(testRec{N: 10}); err == nil {
				t.Fatal("Append accepted an invalid record")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := l.Append(next); err == nil {
				t.Fatal("Append after Close succeeded")
			}
			got, stats, err = ReadJSONL[testRec](path)
			if err != nil || stats.TornTail {
				t.Fatalf("after repair and append: stats %+v, err %v", stats, err)
			}
			if want := append(append([]testRec(nil), tc.want...), next); !reflect.DeepEqual(got, want) {
				t.Fatalf("after repair and append: %+v, want %+v", got, want)
			}
		})
	}
}

// Appends from several goroutines land as whole lines.
func TestJSONLConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, _, err := OpenJSONL[testRec](path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(testRec{w*each + i, strings.Repeat("x", 1+i)}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadJSONL[testRec](path)
	if err != nil || stats.TornTail || len(got) != writers*each {
		t.Fatalf("read %d records, stats %+v, err %v", len(got), stats, err)
	}
	seen := make(map[int]bool)
	for _, r := range got {
		seen[r.N] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("%d distinct records, want %d", len(seen), writers*each)
	}
}
