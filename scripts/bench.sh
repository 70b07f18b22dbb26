#!/bin/sh
# Measures the simulator's wall-clock performance on the fig5/fig9/fig11
# benchmarks and writes BENCH_wallclock.json: per benchmark, the best
# ns/op, the simulated cycles per iteration and the
# simulated-cycles-per-second throughput.
#
# If STREAMGPP_BASELINE_BIN names a `go test -c` binary built from an
# older tree (e.g. via `git worktree add /tmp/base <ref>`), it is run
# interleaved with the current one and each record additionally gets
# baseline_ns_per_op and speedup_vs_baseline — wall-clock before/after
# across commits, with machine noise hitting both binaries alike. This
# vs-baseline comparison, together with the golden files that pin every
# simulated cycle (internal/bench/testdata), is the regression check for
# simulator speed changes.
#
# A full run also appends one run-ledger line per benchmark (the JSONL
# schema of internal/obs/ledger.go, keyed by `git describe`) to
# BENCH_history.jsonl, so wall-clock history accumulates across commits:
# `streambench -validate` checks it and `streamtrace -trend` flags a
# newest run that sits outside its history's noise band. Each history
# line also carries the simulator process's runtime.heap_inuse_bytes
# and runtime.gc_pause_p99_ns (from the benchmarks' runtime collector
# sample). Smoke runs leave the history untouched.
#
# Usage:
#   scripts/bench.sh          # the measured set (a few minutes)
#   scripts/bench.sh smoke    # one tiny benchmark, for check.sh
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-full}"
OUT="BENCH_wallclock.json"
case "$MODE" in
smoke | --smoke)
	PAT='^BenchmarkFig9LDSTCompLow$'
	TIME=1x
	COUNT=1
	# A smoke run only proves the harness works; don't clobber the
	# checked-in measurement.
	OUT="${TMPDIR:-/tmp}/BENCH_wallclock.smoke.json"
	;;
*)
	PAT='^(BenchmarkFig5Bandwidth|BenchmarkFig9LDSTCompLow|BenchmarkFig9GATSCATLow|BenchmarkFig9PRODCONLow|BenchmarkFig11aFEMEulerLin|BenchmarkFig11bCDP4n8192|BenchmarkFig11cNeo|BenchmarkFig11dSPASLarge)$'
	TIME=3x
	COUNT=3
	;;
esac
BIN="$(mktemp /tmp/streamgpp-bench.XXXXXX)"
CUR="$(mktemp /tmp/streamgpp-cur.XXXXXX)"
BASE="$(mktemp /tmp/streamgpp-base.XXXXXX)"
trap 'rm -f "$BIN" "$CUR" "$BASE"' EXIT

go test -c -o "$BIN" .

# Interleave the binaries count times so machine noise hits both alike.
: >"$CUR"
: >"$BASE"
i=0
while [ "$i" -lt "$COUNT" ]; do
	"$BIN" -test.run '^$' -test.bench "$PAT" -test.benchtime "$TIME" >>"$CUR"
	if [ -n "${STREAMGPP_BASELINE_BIN:-}" ]; then
		"$STREAMGPP_BASELINE_BIN" -test.run '^$' -test.bench "$PAT" -test.benchtime "$TIME" >>"$BASE"
	fi
	i=$((i + 1))
done

awk -v curfile="$CUR" -v basefile="$BASE" '
function ingest(file, best, cyc,    n, i, name, ns, c, hp, gp, line, f) {
	while ((getline line <file) > 0) {
		n = split(line, f, /[ \t]+/)
		if (f[1] !~ /^Benchmark/) continue
		name = f[1]
		sub(/-[0-9]+$/, "", name)
		ns = -1; c = -1; hp = -1; gp = -1
		for (i = 3; i <= n; i++) {
			if (f[i] == "ns/op") ns = f[i-1]
			if (f[i] == "sim-cycles") c = f[i-1]
			if (f[i] == "heap-inuse-bytes") hp = f[i-1]
			if (f[i] == "gc-pause-p99-ns") gp = f[i-1]
		}
		if (ns < 0) continue
		if (!(name in best) || ns < best[name]) best[name] = ns
		if (c >= 0) cyc[name] = c
		# Runtime samples only matter for the binary under
		# measurement; keep the last sample per benchmark.
		if (file == curfile) {
			if (hp >= 0) heap[name] = hp
			if (gp >= 0) gcp99[name] = gp
		}
		order[++norder] = name
	}
	close(file)
}
BEGIN {
	norder = 0
	ingest(curfile, cur, cycles)
	ingest(basefile, base, basecycles)
	printf "[\n"
	first = 1
	for (i = 1; i <= norder; i++) {
		name = order[i]
		if (name in done) continue
		done[name] = 1
		if (!first) printf ",\n"
		first = 0
		printf "  {\"benchmark\": \"%s\"", name
		printf ", \"ns_per_op\": %.0f", cur[name]
		if (name in cycles) {
			printf ", \"sim_cycles\": %.0f", cycles[name]
			if (cur[name] > 0)
				printf ", \"sim_cycles_per_sec\": %.0f", cycles[name] * 1e9 / cur[name]
		}
		if (name in heap)
			printf ", \"heap_inuse_bytes\": %.0f", heap[name]
		if (name in gcp99)
			printf ", \"gc_pause_p99_ns\": %.0f", gcp99[name]
		if (name in base) {
			printf ", \"baseline_ns_per_op\": %.0f", base[name]
			if (cur[name] > 0)
				printf ", \"speedup_vs_baseline\": %.2f", base[name] / cur[name]
		}
		printf "}"
	}
	printf "\n]\n"
}' >"$OUT"

echo "wrote $OUT:"
cat "$OUT"

if [ "$MODE" != "smoke" ] && [ "$MODE" != "--smoke" ]; then
	HIST="BENCH_history.jsonl"
	COMMIT="$(git describe --always --dirty 2>/dev/null || echo unknown)"
	NOW="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	awk -v commit="$COMMIT" -v now="$NOW" '
	/"benchmark"/ {
		name = ""; ns = ""; cyc = ""; cps = ""; hp = ""; gp = ""
		if (match($0, /"benchmark": "[^"]+"/)) name = substr($0, RSTART + 14, RLENGTH - 15)
		if (match($0, /"ns_per_op": [0-9]+/)) ns = substr($0, RSTART + 13, RLENGTH - 13)
		if (match($0, /"sim_cycles": [0-9]+/)) cyc = substr($0, RSTART + 14, RLENGTH - 14)
		if (match($0, /"sim_cycles_per_sec": [0-9]+/)) cps = substr($0, RSTART + 22, RLENGTH - 22)
		if (match($0, /"heap_inuse_bytes": [0-9]+/)) hp = substr($0, RSTART + 20, RLENGTH - 20)
		if (match($0, /"gc_pause_p99_ns": [0-9]+/)) gp = substr($0, RSTART + 19, RLENGTH - 19)
		if (name == "" || ns == "") next
		printf "{\"schema\":2,\"time\":\"%s\",\"experiment\":\"%s\",\"commit\":\"%s\",\"wall_ns\":%s", now, name, commit, ns
		if (cyc != "") printf ",\"sim_cycles\":%s", cyc
		if (cps != "") printf ",\"sim_cycles_per_sec\":%s", cps
		metrics = ""
		if (hp != "") metrics = metrics (metrics == "" ? "" : ",") "\"runtime.heap_inuse_bytes\":" hp
		if (gp != "") metrics = metrics (metrics == "" ? "" : ",") "\"runtime.gc_pause_p99_ns\":" gp
		if (metrics != "") printf ",\"metrics\":{%s}", metrics
		printf ",\"source\":\"bench.sh\"}\n"
	}' "$OUT" >>"$HIST"
	echo "appended $(grep -c "\"time\":\"$NOW\"" "$HIST") entries to $HIST (commit $COMMIT)"
fi
