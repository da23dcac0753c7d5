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
        "return measured > 0.5 * (1.0 + 2.0 ** (n + 1) * error_bound)",
        "return measured > 0.5 * (1.0 + 2.0 ** n * error_bound)",
        "is_wrapped splits the window from the wrapped band in the wrong place",
    ),
    Mutant(
        "window-floor-dropped",
        "src/molphase/ipea.py",
        "margin = config.phase_error_bound * 2.0 ** (-n * (config.iterations - 1)) + PHASE_FLOOR",
        "margin = config.phase_error_bound * 2.0 ** (-n * (config.iterations - 1))",
        "the runs admit ground phases within float64 rounding of the window's edge",
    ),
    Mutant(
        "newton-schulz-dropped",
        "src/molphase/qcore.py",
        "m = mul(m, eye - 0.5 * drifts[-1])",
        "m = m",
        "the power chain drifts off the unitary group",
    ),
    Mutant(
        "fidelity-conjugate-dropped",
        "src/molphase/asp.py",
        "vectors[read, :, 0].T).conj()",
        "vectors[read, :, 0].T)",
        "ASP fidelities use unconjugated ground-state weights (wrong for complex targets)",
    ),
    Mutant(
        "sweep-gap-check-dropped",
        "src/molphase/asp.py",
        "if gap <= molham.GAP_TOL:",
        "if gap < 0.0:",
        "the sweep runs through a closed gap, where the ground state it reads is arbitrary",
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
        "guarantee-floor-dropped",
        "src/molphase/ipea.py",
        "bound = phase_error_bound * 2.0 ** (-n * (len(records) - 1)) + PHASE_FLOOR",
        "bound = phase_error_bound * 2.0 ** (-n * (len(records) - 1))",
        "guaranteed_bits ignore float64 rounding and can exceed 48",
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
        "run_ipea builds the operator before checking the window, and a huge tau overflows it",
    ),
    Mutant(
        "asp-accepts-both-time-flags",
        "src/molphase/cli.py",
        "if (args.scan is None) == (args.total_time is None):",
        "if args.scan is None and args.total_time is None:",
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
        "scan-step-overflows",
        "src/molphase/cli.py",
        "(min(start + step, sys.float_info.max) - start)",
        "(start + step - start)",
        "a one-point scan whose start + step passes the largest float gets a NaN time (exit 2)",
    ),
    Mutant(
        "scan-half-step-stop",
        "src/molphase/cli.py",
        "start + np.arange(int(intervals) + 1) * (min(start + step, sys.float_info.max) - start)",
        "np.arange(start, min(start + (int(intervals) + 0.5) * step, sys.float_info.max), step)",
        "a one-point scan whose half step is below the float spacing at its start is refused as empty (exit 2)",
    ),
    Mutant(
        "sweep-slice-times-unbounded",
        "src/molphase/asp.py",
        "if len(s_values) * len(total_times) > _MAX_SLICE_TIMES:",
        "if False:",
        "asp --steps 65536 --scan 1:65536:1 passes validation and runs for about 20 minutes",
    ),
    Mutant(
        "phase-factor-check-dropped",
        "src/molphase/qcore.py",
        "if not math.isfinite(e_max * t_max):",
        "if False:",
        "an E*t past the largest float makes the evolution phase NaN (asp exits 0 with fidelity nan)",
    ),
    Mutant(
        "scan-start-sign-unchecked",
        "src/molphase/cli.py",
        "if start <= 0:  # so that stop - start below cannot overflow",
        "if False:",
        "a scan of non-positive times whose span overflows is said to have too many points",
    ),
    Mutant(
        "eigenvalue-finite-check-dropped",
        "src/molphase/qcore.py",
        "if not np.isfinite(vals).all():",
        "if False:",
        "an eigenvalue past float range is decomposed and kept (eig exits 0 and writes Infinity)",
    ),
    Mutant(
        "json-constants-read",
        "src/molphase/molham.py",
        "json.loads(document, parse_constant=_reject_constant)",
        "json.loads(document)",
        "NaN and Infinity tokens read as floats (an Infinity in matrix_im exits 1 on a numpy warning)",
    ),
    Mutant(
        "tau-spread-overflow-read",
        "src/molphase/molham.py",
        "if spread == np.inf:",
        "if False:",
        "a spread past the largest float gives tau 0.0, which IterationConfig blames instead",
    ),
    Mutant(
        "spectrum-gap-overflow-read",
        "src/molphase/molham.py",
        "if not math.isfinite(gap):",
        "if False:",
        "a gap past the largest float passes spectrum, and the run blames the ground phase",
    ),
    Mutant(
        "sweep-gap-overflow-read",
        "src/molphase/asp.py",
        "if not math.isfinite(gap):",
        "if False:",
        "the sweep runs through a gap past the largest float (asp exits 0 with a fidelity)",
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
        "hermitian-difference-warns",
        "src/molphase/qcore.py",
        'with np.errstate(over="ignore"):',
        'with np.errstate(over="warn"):',
        "a Hermiticity difference past the largest float warns (every command exits 1 under -W error)",
    ),
    Mutant(
        "unitary-product-warns",
        "src/molphase/qcore.py",
        'with np.errstate(over="ignore", invalid="ignore"):',
        'with np.errstate(over="warn", invalid="warn"):',
        "a U†U past float range warns before the matrix is rejected",
    ),
    Mutant(
        "unitary-nan-deviation-accepted",
        "src/molphase/qcore.py",
        "if not dev <= UNITARY_TOL:",
        "if dev > UNITARY_TOL:",
        "a matrix whose U†U - I is NaN passes as unitary, and the compiler returns fidelity 1.3e184",
    ),
    Mutant(
        "perturbed-sum-warns",
        "src/molphase/probe.py",
        'with np.errstate(over="ignore"):',
        'with np.errstate(over="warn"):',
        "an H + eps sz past the largest float warns (noise-sweep exits 1 under -W error)",
    ),
    Mutant(
        "perturbed-sum-unchecked",
        "src/molphase/probe.py",
        "if not np.isfinite(m).all():",
        "if False:",
        "an H + eps sz past the largest float is blamed on the matrix's entries, not on epsilon",
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
