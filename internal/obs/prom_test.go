package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"streamgpp/internal/golden"
)

// TestWritePromGolden pins the exposition byte-for-byte: metric-name
// escaping (dots, spaces, braces, leading digits), HELP/TYPE lines,
// histogram bucket cumulativity and the derived quantile gauges. If
// the encoding changes deliberately, regenerate with
// go test ./internal/obs -run TestWritePromGolden -update.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec.strip_retries").Add(3)
	r.Counter("9starts.with-digit{x}").Inc()
	g := r.Gauge("wq depth")
	g.Set(7)
	g.Set(2)
	h := r.Histogram("streamd.run_ms")
	for _, v := range []float64{0.5, 3, 3, 100} {
		h.Observe(v)
	}
	r.Info("streamd.build_info", map[string]string{
		"goversion": "go1.22.0",
		"revision":  "abc123",
		"weird":     "a\"b\\c\nd",
	})

	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "prom.golden", buf.Bytes())
}

// Bucket cumulativity is a hard invariant scrapers rely on: each
// le="B" sample counts every observation ≤ B, so the series is
// non-decreasing and ends at the total count.
func TestWritePromBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for v := 1; v <= 300; v++ {
		h.Observe(float64(v))
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	var infSeen bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "h_bucket{") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket series decreased: %q after %d", line, last)
		}
		last = n
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if n != 300 {
				t.Fatalf("+Inf bucket = %d, want total 300", n)
			}
		}
	}
	if !infSeen {
		t.Fatal("no le=\"+Inf\" bucket emitted")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"exec.strip_retries": "exec_strip_retries",
		"wq depth":           "wq_depth",
		"9lead":              "_9lead",
		"a:b":                "a:b",
		"bw.L1.bytes":        "bw_L1_bytes",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Snapshot quantiles must agree with the live instrument's, and both
// must bound the true quantile from above while never exceeding max.
func TestSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q")
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	snap := r.Snapshot()["q"]
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		live, frozen := h.Quantile(q), snap.Quantile(q)
		if live != frozen {
			t.Errorf("q=%v: live %v != snapshot %v", q, live, frozen)
		}
		if frozen > h.Max() {
			t.Errorf("q=%v: quantile %v exceeds max %v", q, frozen, h.Max())
		}
		trueQ := q * 1000
		if frozen < trueQ {
			t.Errorf("q=%v: quantile %v below the true quantile %v (not an upper bound)", q, frozen, trueQ)
		}
	}
	if got := (MetricValue{Kind: KindGauge, Value: 5}).Quantile(0.5); got != 0 {
		t.Errorf("gauge Quantile = %v, want 0", got)
	}
}

// Info metrics render as a constant-1 gauge whose labels are escaped
// per the exposition grammar and emitted in sorted key order.
func TestWritePromInfoEscaping(t *testing.T) {
	r := NewRegistry()
	r.Info("build.info", map[string]string{
		"b": `back\slash`,
		"a": "line\nbreak",
		"c": `quo"te`,
	})
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `build_info{a="line\nbreak",b="back\\slash",c="quo\"te"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("info sample missing or misescaped:\n got %q\nwant substring %q", buf.String(), want)
	}
	if !strings.Contains(buf.String(), "# TYPE build_info gauge\n") {
		t.Errorf("info metric missing gauge TYPE line:\n%s", buf.String())
	}
}
