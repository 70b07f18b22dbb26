package bench

import (
	"bytes"
	"testing"

	"streamgpp/internal/golden"
	"streamgpp/internal/sim"
)

// renderAll runs every experiment and returns the concatenated tables.
func renderAll(t *testing.T, quick bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RunAll(&buf, quick); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQuickExperimentsMatchGolden pins every bundled experiment's
// quick-mode tables — exactly what `streambench -exp all -quick`
// prints — byte for byte, so a change of one simulated cycle anywhere
// fails the suite. After an intended change, regenerate with
//
//	go test ./internal/bench -run TestQuickExperimentsMatchGolden -update
//
// and review the diff of testdata/all_quick.golden.
func TestQuickExperimentsMatchGolden(t *testing.T) {
	out := []byte(sim.MustNew(sim.PentiumD8300()).Describe() + "\n\n")
	golden.Check(t, "all_quick.golden", append(out, renderAll(t, true)...))
}

// The parallel runner must not change a single output byte: RunAll at
// high parallelism matches the serial run.
func TestParallelRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	oldPar := Parallelism
	defer func() { Parallelism = oldPar }()

	Parallelism = 1
	serial := renderAll(t, true)
	Parallelism = 8
	if parallel := renderAll(t, true); !bytes.Equal(serial, parallel) {
		t.Errorf("parallel run differs from serial run:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}
