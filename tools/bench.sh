#!/bin/sh
# Check the benchmark: run its own tests, then a short run of each workload.
# Each run's JSON summary (the last line of its output) must report a
# correct run with no failed solve, and its result file in .bench_out/ must
# list every precision-limit probe as passed (a failed probe moves only
# fail_frac, which the summary leaves out). Run from any directory:
#
#     sh tools/bench.sh
#
# Exits non-zero on a failed test, run or check.
set -euf
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 2' HUP INT TERM
cd "$root"

# The ASP-prepared states of the prepared_pipeline test overlap the ground
# state by less than 0.999, so run_ipea warns by design.
python -m pytest bench -W error -W "ignore:prepared state overlaps:UserWarning"

for w in jitter_sweep prepared_pipeline pulse_backend cli_cold; do
    python3 bench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 > "$work/run_$w.txt"
    tail -n 1 "$work/run_$w.txt" > "$work/bench_$w.json"
    python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); assert r["correct"] is True and r["failed"] == 0, (sys.argv[1], r)' "$work/bench_$w.json"
    python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); assert all(p["passed"] for p in r["probes"]), (sys.argv[1], r["probes"])' ".bench_out/result-$w-seed1-trace0.json"
    echo "$w: correct, no failed solve, every probe passed"
done
