package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleEntry(exp string, wallNs int64) LedgerEntry {
	return LedgerEntry{
		Schema:     LedgerSchema,
		Experiment: exp,
		Config:     "quick",
		ConfigHash: Hash("quick"),
		WallNs:     wallNs,
		SimCycles:  1000,
		Metrics:    map[string]float64{"sim.cycles": 1000},
		Recovery:   map[string]uint64{"retries": 0},
		Source:     "test",
	}
}

func TestLedgerAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	want := []LedgerEntry{sampleEntry("fig5", 100), sampleEntry("fig6", 200)}
	for _, e := range want {
		if err := AppendJSONL(path, e); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := ReadJSONL[LedgerEntry](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d entries, want 2", len(got))
	}
	for i := range want {
		if got[i].Experiment != want[i].Experiment || got[i].WallNs != want[i].WallNs {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Metrics["sim.cycles"] != 1000 {
			t.Errorf("entry %d metrics lost: %+v", i, got[i].Metrics)
		}
	}
}

func TestLedgerValidate(t *testing.T) {
	e := sampleEntry("fig5", 1)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := e
	bad.Schema = 99
	if err := bad.Validate(); err == nil {
		t.Error("schema mismatch not rejected")
	}
	bad = e
	bad.Experiment = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty experiment not rejected")
	}
	bad = e
	bad.WallNs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative wall_ns not rejected")
	}
}

// Rows written while the simulator had a bulk fast path carry a
// "fast_path" field and coverage.* metrics. They must still read,
// validate and roll up into trends.
func TestLedgerReadsFastPathEraRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	rows := `{"schema":2,"experiment":"BenchmarkFig9LDSTCompLow","fast_path":true,"wall_ns":47447273,"sim_cycles_per_sec":123456305,"metrics":{"coverage.fastpath_pct":86.06,"coverage.bail.no_pin":12,"fastpath_speedup":0.99},"source":"bench.sh"}
{"schema":2,"experiment":"BenchmarkFig9LDSTCompLow","fast_path":false,"wall_ns":48000000,"sim_cycles_per_sec":120000000,"source":"bench.sh"}
`
	if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJSONL[LedgerEntry](path)
	if err != nil {
		t.Fatalf("fast-path era rows rejected: %v", err)
	}
	if len(got) != 2 || got[0].Metrics["coverage.fastpath_pct"] != 86.06 {
		t.Fatalf("rows = %+v", got)
	}
	trend := TrendReport(got)
	if len(trend) != 1 || trend[0].Runs != 2 {
		t.Fatalf("trend = %+v", trend)
	}
}

func TestLedgerCrossVersion(t *testing.T) {
	// v1 baselines written before the coverage metrics existed must stay
	// readable under the v2 reader; out-of-range versions must not.
	v1 := sampleEntry("fig5", 100)
	v1.Schema = 1
	if err := v1.Validate(); err != nil {
		t.Fatalf("v1 entry rejected: %v", err)
	}
	v2 := sampleEntry("fig5", 100)
	v2.Metrics["coverage.fastpath_pct"] = 97.5
	v2.Metrics["bw.dram.bytes"] = 1 << 20
	if v2.Schema != 2 {
		t.Fatalf("current schema = %d, want 2", v2.Schema)
	}
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	if err := AppendJSONL(path, v1, v2); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJSONL[LedgerEntry](path)
	if err != nil {
		t.Fatalf("mixed-version ledger rejected: %v", err)
	}
	if len(got) != 2 || got[0].Schema != 1 || got[1].Schema != 2 {
		t.Fatalf("round trip lost versions: %+v", got)
	}
	if got[1].Metrics["coverage.fastpath_pct"] != 97.5 {
		t.Fatalf("v2 coverage metrics lost: %+v", got[1].Metrics)
	}
	for _, bad := range []int{0, LedgerSchema + 1} {
		e := sampleEntry("fig5", 100)
		e.Schema = bad
		if err := e.Validate(); err == nil {
			t.Errorf("schema %d accepted", bad)
		}
	}
}

// parseLedger reads text as a ledger file.
func parseLedger(t *testing.T, text string) ([]LedgerEntry, LogStats, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadJSONL[LedgerEntry](path)
}

func TestLedgerRejectsMalformedLine(t *testing.T) {
	// Malformed JSON *before* the last line is corruption, not a torn
	// write, and must still fail with its line number.
	entries, _, err := parseLedger(t,
		`{"schema":1,"experiment":"fig5","wall_ns":1}`+"\n"+
			`{"schema":1`+"\n"+
			`{"schema":1,"experiment":"fig6","wall_ns":2}`+"\n")
	if err == nil {
		t.Fatal("mid-file malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the line: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("valid prefix lost: %d entries", len(entries))
	}
	// A committed final line that fails schema validation is also
	// corruption — torn writes truncate JSON, they don't invent valid
	// JSON with bad fields.
	_, _, err = parseLedger(t,
		`{"schema":1,"experiment":"fig5","wall_ns":1}`+"\n"+
			`{"schema":99,"experiment":"fig6","wall_ns":2}`+"\n")
	if err == nil {
		t.Fatal("schema-invalid final line accepted")
	}
}

// TestLedgerToleratesTornTail: a writer killed mid-append (streamd on
// SIGKILL) leaves a prefix of the final line — at worst the whole
// record without its newline, which is not yet committed. The read
// must skip it with a counted warning instead of failing the file.
func TestLedgerToleratesTornTail(t *testing.T) {
	full := `{"schema":2,"experiment":"fig5","wall_ns":1}`
	for cut := 1; cut <= len(full); cut++ {
		entries, stats, err := parseLedger(t, full+"\n"+full+"\n"+full[:cut])
		if err != nil {
			t.Fatalf("cut %d: torn tail rejected: %v", cut, err)
		}
		if len(entries) != 2 || stats.Records != 2 {
			t.Fatalf("cut %d: %d entries, want 2", cut, len(entries))
		}
		if !stats.TornTail || stats.TornLine != 3 {
			t.Fatalf("cut %d: stats = %+v, want torn tail at line 3", cut, stats)
		}
	}
	// An intact file reports no torn tail.
	_, stats, err := parseLedger(t, full+"\n")
	if err != nil || stats.TornTail || stats.Records != 1 {
		t.Fatalf("intact file: stats = %+v, err = %v", stats, err)
	}
}

// TestLedgerTornTailOnDisk writes a partial record the way a killed
// streamd would — a valid ledger plus a truncated final line — and
// checks the whole read/open/repair/append path over the actual file.
func TestLedgerTornTailOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := AppendJSONL(path, sampleEntry("a", 1), sampleEntry("b", 2)); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: start appending a third record but cut
	// the write partway through (no trailing newline, truncated JSON).
	line, _ := json.Marshal(sampleEntry("c", 3))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line[:len(line)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, stats, err := ReadJSONL[LedgerEntry](path)
	if err != nil {
		t.Fatalf("torn ledger rejected: %v", err)
	}
	if len(entries) != 2 || !stats.TornTail || stats.TornLine != 3 {
		t.Fatalf("entries = %d, stats = %+v", len(entries), stats)
	}

	// Opening for append truncates the torn tail so appends are safe.
	l, last, stats, err := OpenJSONL[LedgerEntry](path)
	if err != nil || !stats.TornTail || last.Experiment != "b" {
		t.Fatalf("OpenJSONL = last %q, stats %+v, err %v", last.Experiment, stats, err)
	}
	if err := l.Append(sampleEntry("c", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, stats, err = ReadJSONL[LedgerEntry](path)
	if err != nil || stats.TornTail || len(entries) != 3 {
		t.Fatalf("after repair+append: %d entries, stats = %+v, err = %v", len(entries), stats, err)
	}
	l, _, stats, err = OpenJSONL[LedgerEntry](path)
	if err != nil || stats.TornTail {
		t.Fatalf("reopening a clean file: stats = %+v, err = %v", stats, err)
	}
	l.Close()
}

func TestHashStable(t *testing.T) {
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Error("hash ignores part boundaries")
	}
	if Hash("x") != Hash("x") {
		t.Error("hash not deterministic")
	}
	if len(Hash("x")) != 16 {
		t.Errorf("hash length %d, want 16", len(Hash("x")))
	}
}

func TestFlattenSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(2.5)
	r.Histogram("h").Observe(10)
	r.Histogram("h").Observe(20)
	flat := FlattenSnapshot(r.Snapshot())
	if flat["c"] != 5 || flat["g"] != 2.5 || flat["h"] != 15 {
		t.Fatalf("unexpected flatten: %v", flat)
	}
	if FlattenSnapshot(nil) != nil {
		t.Error("empty snapshot should flatten to nil")
	}
}
