package covreport

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"streamgpp/internal/apps/micro"
	"streamgpp/internal/exec"
	"streamgpp/internal/golden"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// runCoverage runs one micro-benchmark the way the CLI does (registry
// attached via the sim default) and returns the derived report.
func runCoverage(t *testing.T, app string) Report {
	t.Helper()
	reg := obs.NewRegistry()
	sim.SetDefaultObserver(reg)
	defer sim.SetDefaultObserver(nil)

	res, err := micro.Runners[app](micro.Params{N: 40000, Comp: 1, Seed: 1}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return New(obs.FlattenSnapshot(reg.Snapshot()), res.Stream.Cycles, sim.PentiumD8300())
}

// jsonShape flattens a marshalled JSON value into its sorted key paths
// (array indices collapsed to []), so the golden pins the -coverage
// -json schema — field names and nesting — without pinning workload
// numbers.
func jsonShape(v any) []string {
	var walk func(prefix string, v any, out *[]string)
	walk = func(prefix string, v any, out *[]string) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(prefix+"."+k, x[k], out)
			}
		case []any:
			if len(x) > 0 {
				walk(prefix+"[]", x[0], out)
			} else {
				*out = append(*out, prefix+"[]")
			}
		default:
			*out = append(*out, prefix)
		}
	}
	var out []string
	walk("", v, &out)
	sort.Strings(out)
	return out
}

// TestCoverageJSONSchemaGolden pins the -coverage -json object's shape:
// the bandwidth rows cover every level, and field renames fail loudly.
// Regenerate with -update.
func TestCoverageJSONSchemaGolden(t *testing.T) {
	rep := runCoverage(t, "GAT-SCAT-COMP")
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var parsed any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(jsonShape(parsed), "\n") + "\n"

	golden.Check(t, "coverage_schema.golden", []byte(got))

	if len(rep.Bandwidth.Levels) != len(obs.BandwidthLevels) {
		t.Errorf("bandwidth rows = %d, want %d", len(rep.Bandwidth.Levels), len(obs.BandwidthLevels))
	}
}

// TestCoverageDifferentialFastOnOff pins the report's traffic facts —
// element splits, per-array traffic and every bandwidth figure — for a
// sequential and an indexed workload to the values both fast-path modes
// agreed on while the simulator still had a bulk fast path
// (testdata/traffic_*.golden).
func TestCoverageDifferentialFastOnOff(t *testing.T) {
	for _, app := range []string{"LD-ST-COMP", "GAT-SCAT-COMP"} {
		t.Run(app, func(t *testing.T) {
			rep := runCoverage(t, app)
			if app == "LD-ST-COMP" && (rep.SeqElems == 0 || rep.IndexedElems != 0) {
				t.Errorf("sequential run split %v sequential / %v indexed", rep.SeqElems, rep.IndexedElems)
			}
			if app == "GAT-SCAT-COMP" && rep.IndexedElems == 0 {
				t.Error("indexed run reports no indexed elements")
			}
			invariant, err := json.MarshalIndent(struct {
				SeqElems, IndexedElems float64
				Arrays                 []Array
				Bandwidth              obs.BandwidthReport
			}{rep.SeqElems, rep.IndexedElems, rep.Arrays, rep.Bandwidth}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "traffic_"+app+".golden", append(invariant, '\n'))
		})
	}
}

// TestCoverageRenderNamesRoofline checks the text report carries the
// per-array split and the roofline line.
func TestCoverageRenderNamesRoofline(t *testing.T) {
	rep := runCoverage(t, "GAT-SCAT-COMP")
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	for _, want := range []string{"bulk elements:", "per-array elements", "roofline"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if rep.Bandwidth.DRAMBytes() == 0 {
		t.Error("run attributed no DRAM bytes")
	}
}
