"""The four benchmark workloads.

Each workload is one closed loop with a single client: the next solve
starts after the previous one returns. A solve is one complete energy
estimate. Inputs are a pure function of the workload seed and the solve
index, and every solve is checked against the exact-diagonalization
oracle (``molham.spectrum``, itself cross-checked against
``numpy.linalg.eigvalsh``) after its timing ends.

Library functions are always looked up through their module attributes
(``self.mp.ipea.run_ipea``) so that the tracer's wrappers see every call.
Why each workload exists and which layer metrics should move it is
written down in ``bench/WORKLOADS.md``.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spans import Span

BOUND = 5.0 / 360.0
MIN_BITS = 17
T_GRID = np.arange(1.0, 30.0 + 1e-9, 0.5)
OVER_ROTATIONS = (0.0, 1e-4, 1e-3)
PULSE_PHASE_TOL = 1e-8

# A fixed four-configuration model (hartree), loaded as a document on
# every fourth jitter_sweep solve; tau keeps |E0| tau well inside one turn.
DOC_4X4 = json.dumps({
    "label": "four-configuration model",
    "dim": 4,
    "matrix_re": [
        [-1.85, 0.18, 0.06, 0.02],
        [0.18, -1.25, 0.09, 0.04],
        [0.06, 0.09, -0.90, 0.12],
        [0.02, 0.04, 0.12, -0.25],
    ],
    "metadata": {"source": "benchmark"},
})
TAU_4X4 = 1.9

# Precision-limit probes: for each n admissible at the 5 degree bound, the
# largest k with n*k <= 52, the bits a float64 phase can hold.
PROBE_CONFIGS = ((1, 52), (2, 26), (3, 17), (4, 13))

# Warm-up solves draw their inputs from indices no timed loop reaches.
WARMUP_BASE = 10_000_000


class CheckFailed(Exception):
    """A solve returned, but its output disagrees with the oracle."""


def oracle_phase(mp, h, tau: float) -> float:
    """Ground-state phase -E0 tau / 2pi mod 1 from ``molham.spectrum``."""
    e0 = mp.molham.spectrum(h).ground_energy
    reference = float(np.linalg.eigvalsh(h.matrix)[0])
    if abs(e0 - reference) > 1e-12:
        raise CheckFailed(f"molham.spectrum ground energy {e0!r} != eigvalsh {reference!r}")
    return (-e0 * tau / (2.0 * np.pi)) % 1.0


def h2_like(seed: int, i: int) -> np.ndarray:
    """Real 2x2 system whose sigma_x start state stays connected to its ground state."""
    rng = np.random.default_rng([seed, i])
    h11, h22, h12 = rng.uniform(-2.2, -1.4), rng.uniform(-0.6, 0.0), rng.uniform(0.05, 0.4)
    return np.array([[h11, h12], [h12, h22]])


def printed(log: str, label: str) -> str:
    """The value of a ``label: value`` line of CLI output."""
    match = re.search(rf"^{re.escape(label)}: (\S+)", log, re.M)
    if match is None:
        raise CheckFailed(f"no {label!r} line in the output")
    return match.group(1)


def noise_seed(seed: int, i: int) -> int:
    return seed * 100_000_000 + i


class Workload:
    """Interface the measuring loop drives; see ``run.measure``."""

    name = ""
    cycle = 1  # inputs repeat their kind every ``cycle`` solves
    warmup = 1
    # Fixed per workload so that commits compare like with like, with well
    # over ten samples beyond it in a 25-second run. Higher percentiles are
    # in the result file; they move with garbage collection and with other
    # tenants of a shared machine by up to 50% between runs, too much to gate.
    tail_percentile = 95.0

    def __init__(self, mp, seed: int, work: Path):
        self.mp = mp
        self.seed = seed
        self.work = work

    def warm_up(self) -> None:
        for i in range(self.warmup):
            try:
                self.solve(self.inputs(WARMUP_BASE + i), traced=False)
            except Exception:  # the timed loop meets and counts the same failure
                pass

    def inputs(self, i: int):
        raise NotImplementedError

    def kind(self, inp):
        """The group a solve's latency falls in for ``tail``."""
        return None

    def tail(self, latencies: list[float], kinds: list) -> tuple[float, str]:
        """``solve_tail_ms`` in seconds, and how it was taken."""
        value = float(np.percentile(latencies, self.tail_percentile))
        beyond = sum(1 for x in latencies if x > value)
        return value, f"p{self.tail_percentile:g} of {len(latencies)} solves, {beyond} beyond it"

    def solve(self, inp, traced: bool):
        raise NotImplementedError

    def check(self, inp, out) -> int | None:
        """Raise ``CheckFailed`` on a wrong output; return its correct bits, if any."""
        raise NotImplementedError

    def adopt_spans(self, inp, out, tracer, root: int) -> None:
        """Move spans recorded outside this process into ``tracer``."""

    def probes(self) -> list[tuple[str, bool, str]]:
        """Untimed precision-limit runs: (label, passed, detail)."""
        return []

    def notes(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli_stats(self) -> dict[str, tuple[float, float]]:
        """Per CLI command: (median process ms, median bytes written)."""
        return {}


class JitterSweep(Workload):
    """Jittered ``run_ipea`` at n=3, k=6 on shared Hamiltonians, exact preparation."""

    name = "jitter_sweep"
    cycle = 4
    warmup = 40

    def __init__(self, mp, seed, work):
        super().__init__(mp, seed, work)
        self.h2 = mp.molham.build_h2()
        tau2 = mp.molham.choose_tau(self.h2)
        self.configs = {
            "h2": mp.ipea.IterationConfig(3, 6, BOUND, tau2),
            "4x4": mp.ipea.IterationConfig(3, 6, BOUND, TAU_4X4),
        }
        self.oracle = {
            "h2": oracle_phase(mp, self.h2, tau2),
            "4x4": oracle_phase(mp, mp.molham.load_hamiltonian(DOC_4X4), TAU_4X4),
        }

    def inputs(self, i):
        return ("4x4" if i % 4 == 3 else "h2", noise_seed(self.seed, i))

    def solve(self, inp, traced):
        kind, rng_seed = inp
        mp = self.mp
        noise = mp.probe.NoiseModel(phase_jitter_bound=BOUND, rng_seed=rng_seed)
        h = self.h2 if kind == "h2" else mp.molham.load_hamiltonian(DOC_4X4)
        return mp.ipea.run_ipea(h, self.configs[kind], noise=noise)

    def check(self, inp, out):
        bits = self.mp.ipea.precision_report(out.phase, self.oracle[inp[0]])
        if bits < MIN_BITS:
            raise CheckFailed(f"{inp[0]} seed {inp[1]}: {bits} correct bits < {MIN_BITS}")
        return bits

    def probes(self):
        mp = self.mp
        tau = self.configs["h2"].tau
        results = []
        for n, k in PROBE_CONFIGS:
            label = f"run_ipea n={n} k={k}"
            try:
                config = mp.ipea.IterationConfig(n, k, BOUND, tau)
                noise = mp.probe.NoiseModel(phase_jitter_bound=BOUND, rng_seed=self.seed)
                result = mp.ipea.run_ipea(self.h2, config, noise=noise)
                bits = mp.ipea.precision_report(result.phase, self.oracle["h2"])
            except Exception as exc:  # a probe records any failure and goes on
                results.append((label, False, f"{type(exc).__name__}: {exc}"))
                continue
            results.append((label, bits >= MIN_BITS, f"{bits} correct bits"))
        return results


class PreparedPipeline(Workload):
    """Full chain per distinct system: ASP scan, ASP at the best T, jittered IPEA."""

    name = "prepared_pipeline"
    cycle = 1
    warmup = 2

    def inputs(self, i):
        return h2_like(self.seed, i), noise_seed(self.seed, i)

    def solve(self, inp, traced):
        matrix, rng_seed = inp
        mp = self.mp
        h = mp.molham.MolecularHamiltonian(matrix, label="H2-like")
        tau = mp.molham.choose_tau(h)
        scan = mp.asp.scan_total_time(h, 6, T_GRID)
        best_t = max(scan, key=lambda p: p[1])[0]
        prep = mp.asp.run_asp(mp.asp.AdiabaticSchedule(steps=6, total_time=best_t, target=h))
        config = mp.ipea.IterationConfig(3, 6, BOUND, tau)
        noise = mp.probe.NoiseModel(phase_jitter_bound=BOUND, rng_seed=rng_seed)
        return h, tau, mp.ipea.run_ipea(h, config, prep=prep.final_state, noise=noise)

    def check(self, inp, out):
        h, tau, result = out
        bits = self.mp.ipea.precision_report(result.phase, oracle_phase(self.mp, h, tau))
        if bits < MIN_BITS:
            raise CheckFailed(f"system {inp[0].tolist()}: {bits} correct bits < {MIN_BITS}")
        return bits


class PulseBackend(Workload):
    """``run_pulse_backend`` per system at n=3, k=6, over-rotation cycling 0, 1e-4, 1e-3."""

    name = "pulse_backend"
    cycle = 3
    warmup = 9

    def __init__(self, mp, seed, work):
        super().__init__(mp, seed, work)
        self.min_bits = {o: None for o in OVER_ROTATIONS}

    def inputs(self, i):
        return h2_like(self.seed, i), OVER_ROTATIONS[i % 3]

    def solve(self, inp, traced):
        matrix, over_rotation = inp
        mp = self.mp
        h = mp.molham.MolecularHamiltonian(matrix, label="H2-like")
        config = mp.ipea.IterationConfig(3, 6, BOUND, mp.molham.choose_tau(h))
        return h, config, mp.nmrpulse.run_pulse_backend(h, config, over_rotation=over_rotation)

    def check(self, inp, out):
        h, config, result = out
        mp = self.mp
        bits = mp.ipea.precision_report(result.phase, oracle_phase(mp, h, config.tau))
        over_rotation = inp[1]
        if over_rotation == 0.0:
            exact = mp.ipea.run_ipea(h, config)
            worst = max(
                mp.ipea.phase_distance(p.measured_phase, e.measured_phase)
                for p, e in zip(result.records, exact.records)
            )
            if worst > PULSE_PHASE_TOL:
                raise CheckFailed(f"pulse phases differ from exact gates by {worst:.3e}")
            if bits < MIN_BITS:
                raise CheckFailed(f"{bits} correct bits < {MIN_BITS} at zero over-rotation")
        low = self.min_bits[over_rotation]
        self.min_bits[over_rotation] = bits if low is None else min(low, bits)
        return bits

    def notes(self):
        return {"min_correct_bits_by_over_rotation": {str(k): v for k, v in self.min_bits.items()}}


class CliRun(NamedTuple):
    index: int
    command: str
    args: tuple[str, ...]
    seed: int | None
    out: Path
    log: Path
    spans: Path


class CliOutcome(NamedTuple):
    code: int
    rss_kb: int
    seconds: float
    traced: bool


class CliCold(Workload):
    """The five README subcommands, each as a fresh ``molphase`` process.

    The commands take 0.2-0.4 s each, so one percentile over all processes
    would sit inside one command's cluster and miss changes to the others.
    The tail is taken per command and averaged, so every command moves it
    by its share.
    """

    name = "cli_cold"
    tail_percentile = 75.0
    cycle = 5
    warmup = 1

    # (name, arguments, files it must write); seeded commands also get --seed.
    COMMANDS = (
        ("eig", ("eig", "--hamiltonian", "h2"), ("eig_report.json",)),
        ("ipea", ("ipea", "--jitter", "5deg"), ("ipea_trace.csv", "ipea_table.txt")),
        ("asp", ("asp", "--steps", "6", "--scan", "1:30:0.5"), ("asp_scan.csv",)),
        ("noise-sweep", ("noise-sweep", "--epsilons", "0,1e-5,1e-4,1e-3"), ("noise_sweep.csv",)),
        ("spectra", ("spectra", "--jitter", "5deg"),
         ("spectra_manifest.json",) + tuple(f"spectrum_k{k}.csv" for k in range(-1, 6))),
    )
    SEEDED = ("ipea", "spectra")
    # Seeds repeat every eight rounds, so repeated runs can be compared byte
    # for byte; a 25-second run has about 20 rounds. Eight seeds make the
    # run's min_correct_bits the same for nearly every workload seed.
    SEED_POOL = 8
    CHILD = Path(__file__).resolve().parent / "cli_child.py"

    def __init__(self, mp, seed, work):
        super().__init__(mp, seed, work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.h2 = mp.molham.build_h2()
        self.tau = mp.molham.choose_tau(self.h2)
        self.oracle = oracle_phase(mp, self.h2, self.tau)
        self.energies = mp.molham.spectrum(self.h2).energies
        self.env = dict(os.environ, PYTHONPATH=str(Path(mp.__file__).resolve().parent.parent))
        self.digests: dict[tuple[str, int | None], str] = {}
        self.expected_phases: dict[int, list[float]] = {}
        self.process_ms: dict[str, list[float]] = {}
        self.bytes_written: dict[str, list[int]] = {}
        self.max_rss_kb = 0

    def inputs(self, i):
        command, args, _ = self.COMMANDS[i % len(self.COMMANDS)]
        seed = None
        if command in self.SEEDED:
            seed = self.seed * 1000 + (i // len(self.COMMANDS)) % self.SEED_POOL
            args += ("--seed", str(seed))
        tag = f"p{i}"
        out = self.work / tag
        return CliRun(i, command, args + ("--out", str(out)), seed, out,
                      self.work / f"{tag}.log", self.work / f"{tag}.spans.json")

    def kind(self, inp):
        return inp.command

    def tail(self, latencies, kinds):
        by_command: dict[str, list[float]] = {}
        for seconds, command in zip(latencies, kinds):
            by_command.setdefault(command, []).append(seconds)
        tails = {cmd: float(np.percentile(v, self.tail_percentile)) for cmd, v in by_command.items()}
        beyond = min(sum(1 for x in v if x > tails[cmd]) for cmd, v in by_command.items())
        p = f"p{self.tail_percentile:g}"
        return statistics.fmean(tails.values()), (
            f"mean over {len(tails)} commands of each command's {p} ({len(latencies)} processes;"
            f" each command has at least {beyond} beyond its {p})")

    def solve(self, inp, traced):
        if traced:
            argv = [sys.executable, str(self.CHILD), str(inp.spans), str(inp.index), *inp.args]
        else:
            argv = [sys.executable, "-m", "molphase.cli", *inp.args]
        with open(inp.log, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOutcome(proc.returncode, usage.ru_maxrss, seconds, traced)

    def adopt_spans(self, inp, out, tracer, root):
        if inp.spans.is_file():
            tracer.adopt([Span(*row) for row in json.loads(inp.spans.read_text())], root)
            inp.spans.unlink()

    def check(self, inp, out):
        try:
            return self._check(inp, out)
        finally:
            shutil.rmtree(inp.out, ignore_errors=True)
            inp.log.unlink(missing_ok=True)
            inp.spans.unlink(missing_ok=True)

    def _check(self, inp, out):
        log = inp.log.read_text(errors="replace")
        if out.code != 0:
            raise CheckFailed(f"{inp.command} exited {out.code}: {log.strip()[-300:]}")
        _, _, expected = self.COMMANDS[inp.index % len(self.COMMANDS)]
        files = {p.name: p.read_bytes() for p in sorted(inp.out.iterdir())}
        missing = sorted(set(expected) - set(files))
        if missing:
            raise CheckFailed(f"{inp.command} did not write {missing}")
        digest = hashlib.sha256()
        for name, data in files.items():
            digest.update(name.encode() + b"\0" + data)
        if self.digests.setdefault((inp.command, inp.seed), digest.hexdigest()) != digest.hexdigest():
            raise CheckFailed(f"{inp.command} seed {inp.seed}: outputs not byte-identical to an earlier run")
        bits = getattr(self, "_check_" + inp.command.replace("-", "_"))(inp, files, log)
        self.max_rss_kb = max(self.max_rss_kb, out.rss_kb)
        self.bytes_written.setdefault(inp.command, []).append(sum(len(b) for b in files.values()))
        if not out.traced:
            self.process_ms.setdefault(inp.command, []).append(out.seconds * 1e3)
        return bits

    def _check_eig(self, inp, files, log):
        report = json.loads(files["eig_report.json"])
        worst = float(np.abs(np.array(report["energies"]) - self.energies).max())
        if worst > 1e-12:
            raise CheckFailed(f"eig energies differ from the oracle by {worst:.3e}")
        return None

    def _check_ipea(self, inp, files, log):
        bits = int(printed(log, "correct bits vs oracle"))
        phase = float(printed(log, "phase estimate"))
        if bits < MIN_BITS or self.mp.ipea.phase_distance(phase, self.oracle) >= 2.0 ** -MIN_BITS:
            raise CheckFailed(f"ipea seed {inp.seed}: phase {phase!r}, {bits} bits vs oracle")
        return bits

    def _check_asp(self, inp, files, log):
        rows = [line.split(",") for line in files["asp_scan.csv"].decode().splitlines()[1:]]
        times = np.array([float(t) for t, _ in rows])
        best = max(float(f) for _, f in rows)
        if times.shape != T_GRID.shape or np.abs(times - T_GRID).max() > 1e-9 or not 0.99 <= best <= 1.0 + 1e-12:
            raise CheckFailed(f"asp scan has {len(rows)} rows, best fidelity {best}")
        return None

    def _check_noise_sweep(self, inp, files, log):
        rows = [line.split(",") for line in files["noise_sweep.csv"].decode().splitlines()[1:]]
        exact = [int(r[4]) for r in rows if float(r[0]) == 0.0]
        if not exact or min(exact) < MIN_BITS:
            raise CheckFailed(f"noise-sweep at epsilon 0 reports {exact} attainable bits")
        return None

    def _check_spectra(self, inp, files, log):
        if inp.seed not in self.expected_phases:
            mp = self.mp
            config = mp.ipea.IterationConfig(3, 6, BOUND, self.tau)
            noise = mp.probe.NoiseModel(phase_jitter_bound=BOUND, rng_seed=inp.seed)
            result = mp.ipea.run_ipea(self.h2, config, noise=noise)
            self.expected_phases[inp.seed] = [0.0] + [r.measured_phase for r in result.records]
        manifest = json.loads(files["spectra_manifest.json"])
        got = [manifest[f"k={k}"]["extracted_phase"] for k in range(-1, 6)]
        worst = max(self.mp.ipea.phase_distance(g, e) for g, e in zip(got, self.expected_phases[inp.seed]))
        if worst > 1e-9:
            raise CheckFailed(f"spectra seed {inp.seed}: extracted phases off by {worst:.3e}")
        return None

    def probes(self):
        out = self.work / "probe"
        inp = CliRun(-1, "ipea", ("ipea", "--iterations", "8", "--out", str(out)), None, out,
                     self.work / "probe.log", self.work / "probe.spans.json")
        code = self.solve(inp, traced=False).code
        log = inp.log.read_text(errors="replace")
        inp.log.unlink(missing_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {log.strip()[-300:]}")
            passed, detail = True, f"{self._check_ipea(inp, {}, log)} correct bits"
        except CheckFailed as exc:
            passed, detail = False, str(exc)
        return [("molphase ipea --iterations 8", passed, detail)]

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    def cli_stats(self):
        return {
            cmd: (float(np.median(self.process_ms.get(cmd, [0.0]))),
                  float(np.median(self.bytes_written.get(cmd, [0]))))
            for cmd, _, _ in self.COMMANDS
        }


WORKLOADS = {w.name: w for w in (JitterSweep, PreparedPipeline, PulseBackend, CliCold)}
CLI_COMMANDS = tuple(cmd for cmd, _, _ in CliCold.COMMANDS)
