"""molphase benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured without
tracing; with ``--trace 1`` they are the per-layer ones, from solves run
with every public function wrapped in a span, alternating in blocks with
untraced solves so that the tracing overhead is measured in the same run.
Lines before the last give every end-to-end metric in words, including
``fail_frac`` with its base, and the run's provenance. A copy of the
result goes to ``.bench_out/``.

``attempted`` and ``failed`` count the timed solves. The untimed
precision-limit probes are reported next to them and in ``fail_frac``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# numpy and molphase are imported only inside set_up and later, so that
# their import time counts in setup_s.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Set-up is repeated in fresh interpreters and reported as a median: the
# run's own set-up and SETUP_SAMPLES - 1 more, one before each of as many
# equal segments of the timed phase. A shared machine's speed changes every
# few seconds, so samples taken back to back would all see one moment of it.
SETUP_SAMPLES = 13
# Percentiles listed in the result file beside the gated metrics.
REPORTED_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# The gated end-to-end metrics, as listed in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_tail_ms": "ms",
    "min_correct_bits": "bits",
    "peak_rss_mb": "MB",
}
# Printed and recorded beside them but not gated: fail_frac is 0 on some
# workloads, and throughput and median latency jump between the shared
# machine's speed regimes (bench/WORKLOADS.md, "Noise").
UNGATED_UNITS = {"solves_per_s": "1/s", "solve_p50_ms": "ms", "fail_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    from spans import FUNCTIONS
    from workloads import CLI_COMMANDS

    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.process_ms"] = "ms"
        units[f"cli.{cmd}.bytes_written"] = "bytes"
    units.update({"trace.solve_ms": "ms", "trace.unspanned_ms": "ms", "trace.overhead_frac": "ratio"})
    return units


def import_molphase():
    src = ROOT / "src"
    if not (src / "molphase" / "__init__.py").is_file():
        raise SystemExit(f"error: no molphase sources at {src}")
    sys.path.insert(0, str(src))
    import molphase

    if Path(molphase.__file__).resolve().parent != src / "molphase":
        raise SystemExit(f"error: imported molphase from {molphase.__file__}, not {src}")
    return molphase


def set_up(name: str, seed: int, work: Path):
    """Import the package, build the workload's inputs and warm up; time it."""
    start = time.perf_counter()
    mp = import_molphase()
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[name](mp, seed, work)
    workload.warm_up()
    return mp, workload, time.perf_counter() - start, import_s


def setup_sample(name: str, seed: int) -> tuple[float, float]:
    """Set-up and import seconds measured in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["import_s"]


def measure(workload, seconds: float, mp=None, tracer=None, min_solves: int = 1,
            run: dict | None = None) -> dict:
    """Closed loop for ``seconds``; solve timing excludes input generation and checks.

    With a tracer, blocks of ``workload.cycle`` solves alternate between
    traced and untraced, so both see every input kind. Passing the result
    of an earlier call as ``run`` continues it: solve indices go on from
    where it stopped and the new solves add to it.
    """
    if run is None:
        run = {"plain": [], "kinds": [], "traced": [], "bits": [], "errors": [],
               "attempted": 0, "failed": 0, "busy_s": 0.0}
    plain, kinds, traced_lat, bits, errors = (run[k] for k in ("plain", "kinds", "traced", "bits", "errors"))
    attempted, failed = run["attempted"], run["failed"]
    outside = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = attempted
    while attempted < min_solves or time.perf_counter() < deadline:
        traced = tracer is not None and (i // workload.cycle) % 2 == 0
        t_in = time.perf_counter()
        if traced:
            tracer.install(mp)
        elif tracer is not None:
            tracer.uninstall()
        inp = workload.inputs(i)
        error = None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.solve(i) as root:
                    out = workload.solve(inp, traced=True)
            else:
                out = workload.solve(inp, traced=False)
        except Exception as exc:  # a raising solve counts as failed, never dropped
            error = exc
        t1 = time.perf_counter()
        if error is None:
            try:
                if traced:
                    workload.adopt_spans(inp, out, tracer, root)
                got = workload.check(inp, out)
            except Exception as exc:  # any check error fails the solve
                error = exc
        attempted += 1
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"solve {i}: {type(error).__name__}: {error}")
        else:
            if traced:
                traced_lat.append(t1 - t0)
            else:
                plain.append(t1 - t0)
                kinds.append(workload.kind(inp))
            if got is not None:
                bits.append(got)
        outside += (t0 - t_in) + (time.perf_counter() - t1)
        i += 1
    if tracer is not None:
        tracer.uninstall()
    run.update(attempted=attempted, failed=failed,
               busy_s=run["busy_s"] + time.perf_counter() - start - outside)
    return run


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def provenance(mp, workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "molphase": mp.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, without searching parent directories."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "molphase").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(run: dict, workload, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, plus what the report states beside them."""
    lat = run["plain"]
    ok = len(lat)
    tail_value, how = workload.tail(lat, run["kinds"]) if lat else (0.0, "no successful solves")
    values = {
        "setup_s": statistics.median(setup),
        "solves_per_s": ok / run["busy_s"],
        "solve_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "solve_tail_ms": tail_value * 1e3,
        "min_correct_bits": min(run["bits"]) if run["bits"] else 0,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    context = {
        "solve_tail": how, "solve_samples": ok,
        "latency_percentiles_ms": {p: percentile(lat, p) * 1e3 for p in REPORTED_PERCENTILES if lat},
    }
    return values, context


def per_layer(run: dict, tracer, workload, imports: list[float]) -> tuple[dict, float]:
    from spans import FUNCTIONS, layer_totals
    from workloads import CLI_COMMANDS

    solves, solve_s, unspanned, calls, self_s, closure = layer_totals(tracer.spans)
    n = max(solves, 1)
    values = {}
    for fn in FUNCTIONS:
        values[f"{fn}.calls"] = calls.get(fn, 0) / n
        values[f"{fn}.self_ms"] = self_s.get(fn, 0.0) / n * 1e3
    values["cli.import_ms"] = statistics.median(imports) * 1e3
    stats = workload.cli_stats()
    for cmd in CLI_COMMANDS:
        process_ms, written = stats.get(cmd, (0.0, 0.0))
        values[f"cli.{cmd}.process_ms"] = process_ms
        values[f"cli.{cmd}.bytes_written"] = written
    values["trace.solve_ms"] = solve_s / n * 1e3
    values["trace.unspanned_ms"] = unspanned / n * 1e3
    plain, traced = statistics.median(run["plain"] or [0.0]), statistics.median(run["traced"] or [0.0])
    values["trace.overhead_frac"] = (traced - plain) / plain if plain else 0.0
    return values, closure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("jitter_sweep", "prepared_pipeline", "pulse_backend", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Preparation overlap below 0.999 is expected on prepared_pipeline.
    warnings.filterwarnings("ignore", message="prepared state overlaps")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        mp, workload, setup_s, import_s = set_up(args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        samples = [(setup_s, import_s)]

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        run = None
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(setup_sample(args.workload, args.seed))
            run = measure(workload, args.seconds / (SETUP_SAMPLES - 1), mp, tracer, run=run)
        probes = workload.probes()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    correct = run["failed"] == 0
    probe_failed = sum(1 for _, passed, _ in probes if not passed)
    fail_frac = (run["failed"] + probe_failed) / (run["attempted"] + len(probes))
    record = {
        "provenance": provenance(mp, args.workload, args.seed, args.trace),
        "fail_frac": fail_frac,
        "fail_frac_base": f"({run['failed']} failed solves + {probe_failed} failed precision-limit probes)"
                          f" / ({run['attempted']} timed solves + {len(probes)} untimed probes)",
        "setup_samples_s": [s for s, _ in samples],
        "probes": [{"probe": label, "passed": passed, "detail": detail} for label, passed, detail in probes],
        "errors": run["errors"],
        "notes": workload.notes(),
    }
    print(json.dumps(record["provenance"]))
    if args.trace:
        values, closure = per_layer(run, tracer, workload, [i for _, i in samples])
        # Self times plus the unspanned remainder must add up to the solve time.
        if abs(closure) > 1e-9 * (len(tracer.spans) + 1):
            correct = False
            run["errors"].append(f"span self times miss the solve time by {closure:.3e} s")
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        tracer.dump_csv_gz(OUT / f"spans-{args.workload}.csv.gz")
    else:
        values, context = end_to_end(run, workload, [s for s, _ in samples])
        units = END_TO_END_UNITS
        record.update(context, solves_per_s=values["solves_per_s"], solve_p50_ms=values["solve_p50_ms"])
        for name, unit in {**units, "solves_per_s": "1/s", "solve_p50_ms": "ms"}.items():
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
        print(f"{args.workload} solve_tail_ms is the {context['solve_tail']}")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ratio, {record['fail_frac_base']}")
    for label, passed, detail in probes:
        print(f"{args.workload} probe {label}: {'pass' if passed else 'FAIL'} ({detail})")
    for line in run["errors"]:
        print(f"{args.workload} error: {line}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
