package micro

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"streamgpp/internal/exec"
	"streamgpp/internal/golden"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// sampleRun executes one micro-benchmark with a fresh timeline attached
// and returns the timeline's deterministic text dump.
func sampleRun(t *testing.T, runner string) string {
	t.Helper()
	tl := obs.NewTimeline(2000)
	sim.SetDefaultTimeline(tl)
	defer sim.SetDefaultTimeline(nil)

	if _, err := Runners[runner](Params{N: 30000, Comp: 1, Seed: 3}, exec.Defaults()); err != nil {
		t.Fatalf("%s: %v", runner, err)
	}
	var b strings.Builder
	if _, err := tl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The timeline's byte-identity claim: identical seeds and configuration
// produce the sampled series whose digests testdata/timelines.golden
// pins, over a sequential and an irregular workload. The digests were
// recorded while the simulator still had a bulk fast path, when both of
// its modes produced these series; the single memory model must
// reproduce them byte for byte.
func TestTimelineByteIdenticalAcrossFastPath(t *testing.T) {
	var digests strings.Builder
	for _, runner := range []string{"QUICKSTART", "GAT-SCAT-COMP"} {
		got := sampleRun(t, runner)
		fmt.Fprintf(&digests, "%s %x\n", runner, sha256.Sum256([]byte(got)))
		if !strings.Contains(got, `series "srf occupancy"`) ||
			!strings.Contains(got, `series "mlp outstanding"`) ||
			!strings.Contains(got, `series "wq mem pending"`) ||
			!strings.Contains(got, `series "overlap efficiency"`) {
			t.Errorf("%s: timeline missing expected series:\n%s", runner, got)
		}
	}
	golden.Check(t, "timelines.golden", []byte(digests.String()))
}

// Repeating an identical run must reproduce the identical dump — the
// determinism streamd's config-hash result cache assumes.
func TestTimelineDeterministicAcrossRuns(t *testing.T) {
	a := sampleRun(t, "QUICKSTART")
	b := sampleRun(t, "QUICKSTART")
	if a != b {
		t.Errorf("timeline differs across identical runs:\n%s\nvs:\n%s", a, b)
	}
}

// A run without a timeline must not create one implicitly: the nil
// default is the zero-cost path the benchmarks rely on.
func TestNoTimelineByDefault(t *testing.T) {
	m := sim.MustNew(sim.PentiumD8300())
	if m.Timeline() != nil {
		t.Fatal("machine has a timeline without SetDefaultTimeline")
	}
}
