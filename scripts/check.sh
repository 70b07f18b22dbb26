#!/bin/sh
# Repo health check: vet, build, full tests, the race detector over
# the instrumented packages (wq, exec, obs, svm) plus the parallel
# experiment runner and the streamd service (a shortened soak and a
# repeated submit/run/result round trip), the fault matrix, a smoke of
# the run ledger (streambench -ledger writes one entry per experiment;
# streambench's, streamtrace's and the checked-in BENCH_history.jsonl
# rows all validate), a smoke of the critical-path profiler and the
# what-if cross-check (identity exact, kernel speedup within the 10%
# what-if tolerance), the streamd job-service
# lifecycle selftest (cache hit byte-identity, mid-run SSE progress,
# /metricz scrape, the /sloz report, a live /debug/pprof goroutine
# profile, the post-drain goroutine-leak gate, SIGTERM drain, valid
# ledger and event log, the streamtrace -events round-trip and the
# -trend ledger rollup), and a smoke run of the wall-clock benchmark
# harness.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (wq, exec, obs, svm) =="
go test -race ./internal/wq/ ./internal/exec/ ./internal/obs/ ./internal/svm/

echo "== go test -race (parallel experiment runner) =="
go test -race -run 'TestParallelRunsAreByteIdentical' ./internal/bench/

echo "== go test -race (streamd soak, shortened; submit round trip x20) =="
# The full 520-job soak runs in the plain 'go test ./...' pass above;
# -short scales it to 160 jobs so the race-instrumented run stays in
# the tens of seconds while saturation and mid-soak drain remain
# structural. TestSubmitRunResult asserts the 202 body says queued
# while an idle worker races to admit the job; twenty race-instrumented
# runs catch a body rendered after the queue send.
go test -race -short -run 'TestSoak' ./internal/streamd/
go test -race -run 'TestSubmitRunResult$' -count=20 ./internal/streamd/

echo "== fuzz smoke (bitvec, wq, sim memory model) =="
go test -run='^$' -fuzz=FuzzVec -fuzztime=5s ./internal/bitvec/
go test -run='^$' -fuzz=FuzzDependencyOrder -fuzztime=5s ./internal/wq/
go test -run='^$' -fuzz=FuzzMemModel -fuzztime=5s ./internal/sim/

echo "== fault-matrix smoke =="
# Each fault kind against one experiment at a fixed seed; every run
# must either recover or fail with a structured RunError (exit 1 with
# a diagnosis), never panic. Run twice and byte-compare: the seeded
# schedule must replay identically.
go build -o /tmp/streamtrace.check ./cmd/streamtrace
for kind in latency_spike dropped_wakeup dropped_dep_clear enqueue_full kernel_fault poisoned_strip; do
    echo "-- $kind --"
    /tmp/streamtrace.check -app gatscat -n 50000 -fault "$kind:0.2" -faultseed 7 >/tmp/fault_a.txt 2>&1 \
        || grep -q "exec:" /tmp/fault_a.txt \
        || { echo "fault run ($kind) died without a RunError"; cat /tmp/fault_a.txt; exit 1; }
    if grep -q "panic" /tmp/fault_a.txt; then
        echo "fault run ($kind) panicked"; cat /tmp/fault_a.txt; exit 1
    fi
    /tmp/streamtrace.check -app gatscat -n 50000 -fault "$kind:0.2" -faultseed 7 >/tmp/fault_b.txt 2>&1 \
        || grep -q "exec:" /tmp/fault_b.txt \
        || { echo "fault replay ($kind) died without a RunError"; cat /tmp/fault_b.txt; exit 1; }
    cmp /tmp/fault_a.txt /tmp/fault_b.txt \
        || { echo "fault replay ($kind) not byte-identical"; exit 1; }
done
echo "== run-ledger smoke =="
go build -o /tmp/streambench.check ./cmd/streambench
LEDGER="${TMPDIR:-/tmp}/streamgpp-ledger.jsonl"
rm -f "$LEDGER"
# -ledger appends one entry per experiment (an untimed warm-up, then
# one timed run)...
/tmp/streambench.check -exp quickstart -quick -ledger "$LEDGER" >/dev/null
/tmp/streambench.check -validate "$LEDGER" | grep -q ": 1 ledger entries," \
    || { echo "streambench -ledger did not write exactly one entry"; /tmp/streambench.check -validate "$LEDGER"; exit 1; }
# ...and streamtrace's ledger entries share the same schema.
/tmp/streamtrace.check -app quickstart -n 50000 -ledger "$LEDGER" >/dev/null
/tmp/streambench.check -validate "$LEDGER"
# scripts/bench.sh appends to the checked-in history with awk, the one
# writer of the ledger format outside Go: its rows must validate too.
/tmp/streambench.check -validate BENCH_history.jsonl

echo "== critical-path + what-if smoke =="
# The profiler must attribute the quickstart makespan...
/tmp/streamtrace.check -app quickstart -n 50000 -critpath >/tmp/critpath.txt
grep -q "Critical path (stream run):" /tmp/critpath.txt \
    || { echo "streamtrace -critpath printed no path"; cat /tmp/critpath.txt; exit 1; }
grep -q "calibration: predicted" /tmp/critpath.txt \
    || { echo "streamtrace -critpath printed no advisor calibration"; cat /tmp/critpath.txt; exit 1; }
# ...and the what-if cross-check must hold: the identity scenario is
# exact (delta printed as exactly +0.00% on both sides) and the
# kernel-speedup prediction agrees with the simulator re-run within
# the 10% what-if tolerance (streambench exits 3 on disagreement).
/tmp/streambench.check -whatif "ident,kernel=1.25" -quick -ledger "$LEDGER" >/tmp/whatif.txt \
    || { echo "what-if cross-check failed (analytical vs empirical disagree)"; cat /tmp/whatif.txt; exit 1; }
grep "ident" /tmp/whatif.txt | grep -q "+0.00%" \
    || { echo "identity scenario not exact"; cat /tmp/whatif.txt; exit 1; }
grep "kernel=1.25" /tmp/whatif.txt | grep -q "PASS" \
    || { echo "kernel=1.25 scenario did not pass the cross-check"; cat /tmp/whatif.txt; exit 1; }
/tmp/streambench.check -validate "$LEDGER"

echo "== streamd lifecycle smoke =="
# The selftest drives the full job-service lifecycle over real HTTP:
# submit the quickstart job twice and assert the second response is a
# cache hit with byte-identical output, stream a larger job over SSE
# and assert at least one mid-run progress frame preceded its done
# event, scrape /metricz, SIGTERM the process with a job in flight,
# and assert the drain finished it, rejected new work (503), and left
# a valid repairable ledger plus a complete lifecycle event log. Exit
# 0 means every assertion held.
go build -o /tmp/streamd.check ./cmd/streamd
STREAMD_LEDGER="${TMPDIR:-/tmp}/streamgpp-streamd-selftest.jsonl"
rm -f "$STREAMD_LEDGER" "$STREAMD_LEDGER.events"
/tmp/streamd.check -selftest -ledger "$STREAMD_LEDGER" >/tmp/streamd_selftest.txt 2>&1 \
    || { echo "streamd selftest failed"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "cache hit verified" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest verified no cache hit"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "mid-run progress frames over SSE" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest streamed no mid-run progress"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "metricz scrape ok (streamd_jobs_accepted" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest metricz scrape failed"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "ledger valid" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest left no valid ledger"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "event log valid" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest left no valid event log"; cat /tmp/streamd_selftest.txt; exit 1; }
# The self-observability plane must have come up inside the same run:
# the SLO report served with its objectives, a real goroutine profile
# fetched over /debug/pprof, and the post-drain goroutine-leak gate
# held (the selftest exits nonzero if the count never settles).
grep -q "selftest sloz ok" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest served no SLO report"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "selftest pprof profile fetched" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest fetched no pprof profile"; cat /tmp/streamd_selftest.txt; exit 1; }
grep -q "goroutine-leak gate ok" /tmp/streamd_selftest.txt \
    || { echo "streamd selftest goroutine-leak gate did not run"; cat /tmp/streamd_selftest.txt; exit 1; }
# The persisted event JSONL must round-trip through the streamtrace
# pretty-printer: a table with the lifecycle edges and no torn tail.
go build -o /tmp/streamtrace.check ./cmd/streamtrace
/tmp/streamtrace.check -events "$STREAMD_LEDGER.events" >/tmp/streamd_events.txt 2>&1 \
    || { echo "streamtrace -events failed on the selftest log"; cat /tmp/streamd_events.txt; exit 1; }
grep -q "terminal" /tmp/streamd_events.txt \
    || { echo "event log pretty-print shows no terminal edge"; cat /tmp/streamd_events.txt; exit 1; }
grep -q "events over" /tmp/streamd_events.txt \
    || { echo "event log pretty-print incomplete"; cat /tmp/streamd_events.txt; exit 1; }
if grep -q "torn final line" /tmp/streamd_events.txt; then
    echo "selftest event log has a torn tail"; cat /tmp/streamd_events.txt; exit 1
fi
# The same ledger must roll up into a trend report (too few runs per
# experiment here to flag anomalies — the smoke proves the wiring).
/tmp/streamtrace.check -trend "$STREAMD_LEDGER" >/tmp/streamd_trend.txt 2>&1 \
    || { echo "streamtrace -trend failed on the selftest ledger"; cat /tmp/streamd_trend.txt; exit 1; }
grep -q "wall_ns" /tmp/streamd_trend.txt \
    || { echo "trend report shows no wall_ns series"; cat /tmp/streamd_trend.txt; exit 1; }

rm -f "$LEDGER" "$STREAMD_LEDGER" "$STREAMD_LEDGER.events" /tmp/streambench.check /tmp/streamd.check /tmp/streamd_selftest.txt /tmp/streamd_events.txt /tmp/streamd_trend.txt
rm -f /tmp/streamtrace.check /tmp/fault_a.txt /tmp/fault_b.txt /tmp/critpath.txt /tmp/whatif.txt

echo "== scripts/bench.sh smoke =="
sh scripts/bench.sh smoke

echo "OK"
