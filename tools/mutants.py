"""Mutation check: every one-line edit in ``MUTANTS`` must fail tier-1.

Each mutant is an exact old text in one source file, the text that
replaces it, and what the edit breaks. For each, the script copies
``src/``, ``tests/``, ``pyproject.toml`` and the files that
``tests/test_package.py`` reads (``bench/spans.py``, ``README.md``,
``demos/`` and the CI workflow) into a fresh temporary directory, checks that
the old text occurs there exactly once, applies the edit, and runs tier-1
in the copy with ``-x``; the checkout itself is never written. The
unmutated copy must pass first. ``tests/test_package.py`` checks the old
texts against the checkout, so that test is deselected in the copies,
where one of them is edited away.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Exit 0 when every mutant is killed, 1 when any survives, and 2 on a tool
error: an old text that does not occur exactly once, an unmutated copy
that fails, or a pytest exit code other than 0 (survived) or 1 (killed).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "bench/spans.py", "README.md", "demos", ".github/workflows/tests.yml")
GUARD_TEST = "tests/test_package.py::test_mutant_old_texts_occur_once"
# Hypothesis draws from a fixed seed, so each mutant fares alike on every run.
PYTEST = ("-x", "-q", "-W", "error", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--deselect", GUARD_TEST)
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    breaks: str


MUTANTS = (
    Mutant(
        "offset-mod-dropped",
        "src/molphase/ipea.py",
        "offset = (2.0**n * (offset + clipped)) % 1.0",
        "offset = 2.0**n * (offset + clipped)",
        "the receiver phase is no longer reduced mod 1 between rounds",
    ),
    Mutant(
        "wrap-split-at-2^n",
        "src/molphase/ipea.py",
        "return 0.5 * (1.0 + 2.0 ** (n + 1) * error_bound)",
        "return 0.5 * (1.0 + 2.0 ** n * error_bound)",
        "is_wrapped splits the window from the wrapped band in the wrong place",
    ),
    Mutant(
        "contracted-bound-floor-dropped",
        "src/molphase/ipea.py",
        "return error_bound * 2.0 ** (-n * (iterations - 1)) + PHASE_FLOOR",
        "return error_bound * 2.0 ** (-n * (iterations - 1))",
        "the runs admit ground phases within float64 rounding of the window's edge,"
        " and guaranteed_bits ignore that rounding and can exceed 48",
    ),
    Mutant(
        "newton-schulz-dropped",
        "src/molphase/qcore.py",
        "m = mul(m, eye - 0.5 * drifts[r - 1])",
        "m = m",
        "the power chain drifts off the unitary group",
    ),
    Mutant(
        "fidelity-conjugate-dropped",
        "src/molphase/asp.py",
        "weights = _mix(vx.conj().T, ground.T).conj()",
        "weights = _mix(vx.conj().T, ground.T)",
        "ASP fidelities use unconjugated ground-state weights (wrong for complex targets)",
    ),
    Mutant(
        "gap-check-dropped",
        "src/molphase/molham.py",
        "if gap <= GAP_TOL:",
        "if gap < 0.0:",
        "spectrum and the sweep run through a closed gap, where the ground state they read is arbitrary",
    ),
    Mutant(
        "wrapped-seed-kept",
        "src/molphase/ipea.py",
        "seed -= 1.0",
        "seed -= 0.0",
        "reconstruct no longer unwinds a wrapped final reading",
    ),
    Mutant(
        "leading-bits-le",
        "src/molphase/ipea.py",
        "return min(max(-math.frexp(distance)[1], 0), MAX_REPORT_BITS)",
        "return min(max(-math.frexp(math.nextafter(distance, 0.0))[1], 0), MAX_REPORT_BITS)",
        "guaranteed_bits counts a digit whose bound only reaches 2^-b",
    ),
    Mutant(
        "admissibility-margin-dropped",
        "src/molphase/ipea.py",
        "limit = 1.0 - (2.0 ** (n - 48) if self.iterations > 1 else 0.0)",
        "limit = 1.0",
        "IterationConfig admits bounds whose readings reach the wrapped band by rounding",
    ),
    Mutant(
        "coherence-tol-zero",
        "src/molphase/probe.py",
        "COHERENCE_TOL = 1e-6",
        "COHERENCE_TOL = 0.0",
        "a vanishing probe coherence is read as a phase instead of raising",
    ),
    Mutant(
        "window-admits-zero-phase",
        "src/molphase/ipea.py",
        "if not margin <= theta0 <= 1.0 - margin:",
        "if not 0.0 <= theta0 <= 1.0 - margin:",
        "the runs accept E0 = 0 at the automatic tau, whose phase cannot name the energy",
    ),
    Mutant(
        "near-z-tilt-zeroed",
        "src/molphase/nmrpulse.py",
        "tilt = np.arccos(np.clip(nz, -1.0, 1.0))",
        "tilt = np.arccos(np.clip(nz, -1.0, 1.0)) if abs(nz) < math.cos(1e-3) else 0.0",
        "the compiler drops the tilt of axes within 1e-3 rad of +z or -z",
    ),
    Mutant(
        "pulse-run-ignores-over-rotation",
        "src/molphase/nmrpulse.py",
        "realized = evolve_sequence(sequence.events, over_rotation=over_rotation)",
        "realized = evolve_sequence(sequence.events, over_rotation=0.0)",
        "run_pulse_backend evolves the ideal sequence whatever over-rotation it is given",
    ),
    Mutant(
        "seed-check-dropped",
        "src/molphase/probe.py",
        'qcore.require_integer("rng seed", self.rng_seed, 0)',
        "pass",
        "NoiseModel accepts negative and non-integer seeds, which fail only when drawing",
    ),
    Mutant(
        "integer-count-check-dropped",
        "src/molphase/qcore.py",
        "if not isinstance(value, (int, np.integer)) or isinstance(value, bool):",
        "if False:",
        "float and bool counts and seeds pass validation and fail inside the run",
    ),
    Mutant(
        "spectrum-shape-check-dropped",
        "src/molphase/probe.py",
        "if a.shape != FREQUENCIES_HZ.shape:",
        "if False:",
        "a spectrum of the wrong length is integrated on the fixed grid, and truncated in its CSV",
    ),
    Mutant(
        "early-window-check-dropped",
        "src/molphase/ipea.py",
        "require_ground_window(config, spec.ground_energy)",
        "pass",
        "run_ipea builds the operator for a ground phase outside the window",
    ),
    Mutant(
        "asp-accepts-both-time-flags",
        "src/molphase/cli.py",
        "add_mutually_exclusive_group(required=True)",
        "add_argument_group()",
        "asp --scan with --total-time runs the scan and silently ignores the total time",
    ),
    Mutant(
        "draw-bound-check-dropped",
        "src/molphase/ipea.py",
        "if not abs(draw) <= errbd:",
        "if False:",
        "estimate reads draws past the bound, and NaN or infinite ones, as valid jitter",
    ),
    Mutant(
        "non-finite-coherence-read",
        "src/molphase/probe.py",
        "if not cmath.isfinite(z):",
        "if False:",
        "a NaN coherence reads as phase NaN and an infinite one as phase 0.0",
    ),
    Mutant(
        "pcg-increment-even",
        "src/molphase/probe.py",
        "inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128",
        "inc = ((i0 << 64 | i1) << 1) & _MASK128",
        "the PCG64 increment can be even, and the jitter stream leaves numpy's",
    ),
    Mutant(
        "xsl-rr-rotation-from-bit-121",
        "src/molphase/probe.py",
        "rot = state >> 122",
        "rot = state >> 121",
        "the XSL-RR output rotates by the wrong bits of the state",
    ),
    Mutant(
        "seed-xorshift-15",
        "src/molphase/probe.py",
        "return value ^ value >> 16",
        "return value ^ value >> 15",
        "the seed hash shifts by 15, so every seed maps to another stream",
    ),
    Mutant(
        "deep-or-long-json-escapes",
        "src/molphase/molham.py",
        "except (RecursionError, ValueError) as exc:",
        "except ZeroDivisionError as exc:",
        "a deeply nested document, or an integer past int()'s digit limit, is a traceback (exit 1)",
    ),
    Mutant(
        "float-overflow-escapes",
        "src/molphase/molham.py",
        "except OverflowError:",
        "except ZeroDivisionError:",
        "a document integer beyond float range is a traceback (exit 1)",
    ),
    Mutant(
        "scan-half-step-stop",
        "src/molphase/cli.py",
        "start + np.arange(int(intervals) + 1) * (start + step - start)",
        "np.arange(start, start + (int(intervals) + 0.5) * step, step)",
        "a one-point scan whose half step is below the float spacing at its start is refused as empty (exit 2)",
    ),
    Mutant(
        "sweep-slice-times-unbounded",
        "src/molphase/asp.py",
        "if steps * len(total_times) > _MAX_SLICE_TIMES:",
        "if False:",
        "asp --steps 65536 --scan 1:65536:1 passes validation and runs for about 20 minutes",
    ),
    Mutant(
        "json-constants-read",
        "src/molphase/molham.py",
        "json.loads(document, parse_constant=_reject_constant)",
        "json.loads(document)",
        "NaN and Infinity tokens read as floats (an Infinity in matrix_im exits 1 on a numpy warning)",
    ),
    Mutant(
        "seed-words-past-four-dropped",
        "src/molphase/probe.py",
        "for word in words[4:]:",
        "for word in words[4:0]:",
        "seeds of more than 128 bits lose their high words, and their streams leave numpy's",
    ),
    Mutant(
        "eigh-non-convergence-escapes",
        "src/molphase/qcore.py",
        "except np.linalg.LinAlgError as exc:",
        "except ZeroDivisionError as exc:",
        "a matrix whose eigenvalues do not converge is a traceback (eig and ipea exit 1)",
    ),
    Mutant(
        "spectrum-phase-unchecked",
        "src/molphase/probe.py",
        'qcore.require_magnitude("phase fraction", phase_fraction)',
        "pass",
        "a NaN phase fraction synthesizes NaN amplitudes, and an infinite one warns",
    ),
    Mutant(
        "spectrum-phase-unreduced",
        "src/molphase/probe.py",
        "np.exp(2j * np.pi * reduce_phase(phase_fraction))",
        "np.exp(2j * np.pi * phase_fraction)",
        "a phase fraction of 2^500 synthesizes the doublet at an arbitrary phase, not at 0",
    ),
    Mutant(
        "spectrum-amplitudes-unchecked",
        "src/molphase/probe.py",
        'qcore.require_magnitude("spectrum amplitudes", np.abs(a.view(float)).max())',
        "pass",
        "a NaN or infinite amplitude extracts phase NaN and is written to a spectrum CSV",
    ),
    Mutant(
        "digit-count-unchecked",
        "src/molphase/ipea.py",
        'qcore.require_integer("digit count", digits, 1, MAX_REPORT_BITS)',
        "pass",
        "to_binary takes a bool or float digit count and fails with ValueError or TypeError",
    ),
    Mutant(
        "digit-count-uncapped",
        "src/molphase/ipea.py",
        '"digit count", digits, 1, MAX_REPORT_BITS)',
        '"digit count", digits, 1)',
        "to_binary takes any digit count, and its time and memory grow with it (10^10 digits: about 11 GB)",
    ),
    Mutant(
        "matrix-bound-is-finiteness",
        "src/molphase/qcore.py",
        "if not parts.max() <= MAX_MAGNITUDE:",
        "if not parts.max() <= np.finfo(float).max:",
        "a matrix entry past 2^500 is accepted, and its eigenvalues, gap or U†U can overflow inside",
    ),
    Mutant(
        "scalar-bound-is-finiteness",
        "src/molphase/qcore.py",
        "if not abs(value) <= MAX_MAGNITUDE:",
        "if not abs(value) <= np.finfo(float).max:",
        "a time, epsilon, angle or bound past 2^500 is accepted, and E t or a pulse angle can overflow inside",
    ),
    Mutant(
        "digit-count-kept-numpy",
        "src/molphase/ipea.py",
        "(p << int(digits)) // q",
        "(p << digits) // q",
        "a numpy digit count overflows the shift and reads a negative bit string",
    ),
    Mutant(
        "positive-judge-admits-zero",
        "src/molphase/qcore.py",
        "if not value > 0:",
        "if not value >= 0:",
        "a zero tau, total time or step duration passes as positive",
    ),
    Mutant(
        "nonnegative-judge-sign-dropped",
        "src/molphase/qcore.py",
        "if not value >= 0:",
        "if not abs(value) >= 0:",
        "a negative phase error bound, jitter bound, coherent epsilon or delay duration is accepted",
    ),
    Mutant(
        "next-operator-admits-n-0",
        "src/molphase/ipea.py",
        'qcore.require_integer("n", n, 1)',
        'qcore.require_integer("n", n, 0)',
        "next_operator takes n = 0 and returns the clipped operator unsquared",
    ),
    Mutant(
        "report-n-uncapped",
        "src/molphase/ipea.py",
        'qcore.require_integer("n", n, 1, MAX_REPORT_BITS)',
        'qcore.require_integer("n", n, 1)',
        "the report helpers take any n, and 2^n overflows (OverflowError) past about 1023",
    ),
    Mutant(
        "huge-int-shown-in-full",
        "src/molphase/qcore.py",
        "if isinstance(value, int) and abs(value) > MAX_MAGNITUDE:",
        "if False:",
        "a refused int past the 4300-digit str limit raises ValueError in place of ValidationError",
    ),
    Mutant(
        "asp-phase-scale-unbounded",
        "src/molphase/asp.py",
        "if not energy_time <= _MAX_ENERGY_TIME:",
        "if False:",
        "asp prints, with exit 0, fidelities whose float64 rounding error passes 1e-9 (1.8e-2 for H2 at T = 1e15)",
    ),
    Mutant(
        "plan-key-drops-steps",
        "src/molphase/asp.py",
        "@lru_cache(maxsize=_PLAN_CACHE_SIZE)",
        "@lambda f: lru_cache(maxsize=1)(lambda data, steps, kept={}: kept.setdefault(data, f(data, steps)))",
        "a sweep reuses the first plan made for its target whatever its step count, so run_asp after a"
        " scan at another step count sweeps the scan's slices",
    ),
    Mutant(
        "phase-block-unbounded",
        "src/molphase/asp.py",
        "block = max(1, _BLOCK_SLICE_TIMES // len(total_times))",
        "block = steps",
        "a sweep forms every slice's phases at once, so its memory grows with steps x times"
        " (about 2.7 GB at 2^16 slices x 256 times)",
    ),
    Mutant(
        "record-key-drops-steps",
        "src/molphase/asp.py",
        "if record is None or record.steps != schedule.steps or record.data != schedule.target.matrix.tobytes():",
        "if record is None or record.data != schedule.target.matrix.tobytes():",
        "run_asp after a scan at another step count is served the scan's slices",
    ),
    Mutant(
        "record-lookup-nearest",
        "src/molphase/asp.py",
        "if t == len(record.times) or record.times[t] != schedule.total_time:",
        "if t == len(record.times):",
        "run_asp between two grid times is served the sweep at the next one",
    ),
    Mutant(
        "served-fidelities-not-copied",
        "src/molphase/asp.py",
        "per_step_fidelities=fidelities[:, 0].copy(),",
        "per_step_fidelities=fidelities[:, 0],",
        "a served run's per-step fidelities are a read-only view of the record, which its caller cannot write",
    ),
    Mutant(
        "record-uncapped",
        "src/molphase/asp.py",
        "every = schedule.steps * grid.size <= _BLOCK_SLICE_TIMES",
        "every = True",
        "every scan keeps every slice's states, up to 2^24 slice-times (512 MiB)",
    ),
)


class ToolError(Exception):
    pass


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for rel in COPIED:
        src = ROOT / rel
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        if src.is_dir():
            shutil.copytree(src, dest / rel, ignore=ignore)
        else:
            shutil.copy2(src, dest / rel)


def apply(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ToolError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tier1(tree: Path) -> tuple[int, str]:
    """Pytest's exit code and its first failure line, run in ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ToolError(f"tier-1 ran past {TIMEOUT_S} s in {tree}") from None
    failure = next(
        (line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))),
        proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "",
    )
    if proc.returncode not in (0, 1):
        raise ToolError(f"pytest exited {proc.returncode}: {failure}\n{proc.stderr[-2000:]}")
    return proc.returncode, failure


def check(mutant: Mutant | None) -> tuple[int, str]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            apply(mutant, tree)
        return run_tier1(tree)


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    selected = [m for m in MUTANTS if not argv or m.name in argv]
    survivors = []
    try:
        start = time.perf_counter()
        code, failure = check(None)
        if code != 0:
            raise ToolError(f"the unmutated copy fails tier-1: {failure}")
        print(f"unmutated  passes  {time.perf_counter() - start:6.1f} s", flush=True)
        for mutant in selected:
            start = time.perf_counter()
            code, failure = check(mutant)
            verdict = "killed" if code == 1 else "SURVIVED"
            print(f"{mutant.name}  {verdict}  {time.perf_counter() - start:6.1f} s  {failure}", flush=True)
            if code == 0:
                survivors.append(mutant)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for mutant in survivors:
        print(f"survivor {mutant.name} ({mutant.path}): {mutant.breaks}", file=sys.stderr)
    print(f"{len(selected) - len(survivors)} of {len(selected)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
