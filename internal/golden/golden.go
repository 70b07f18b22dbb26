// Package golden compares test output against files checked in under a
// package's testdata directory. Run a package's tests with -update to
// rewrite its golden files; any diff then shows up in review.
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata")

// Check compares got with testdata/name, rewriting the file first when
// the test binary runs with -update. A mismatch reports the first
// differing line.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the golden file (re-run with -update if intended):\n%s", path, firstDiff(string(got), string(want)))
	}
}

// firstDiff describes the first line on which got and want differ.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "<eof>", "<eof>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
	return "no line differs"
}
