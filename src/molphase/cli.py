"""Command-line front end.

Subcommands: ``eig``, ``ipea``, ``asp``, ``noise-sweep``, ``spectra``.
Each declares only the flags it reads. Every subcommand takes
``--hamiltonian`` and ``--out``; ``ipea``, ``noise-sweep`` and ``spectra``
add the iteration flags ``--tau``, ``--bits``, ``--iterations`` and
``--errbd``; ``ipea`` and ``spectra`` add the readout jitter ``--jitter``
and its ``--seed``; ``asp`` adds ``--steps`` and one of ``--total-time``
and ``--scan``, and ``noise-sweep`` adds ``--epsilons``.

Angles accept a ``deg`` suffix (``5deg`` = 5/360 of a turn); bare numbers
are fractions of a turn. Every input is checked before the run that reads
it (an ``--out`` that is, or lies below, an existing file before anything
else; documents are read as UTF-8; every epsilon token before any run) and
no output file is written until a command has fully succeeded, so a given
configuration and seed always produce byte-identical outputs.

Exit codes: 0 success, 1 computation failure, 2 configuration or
validation failure, including a tau at which the phase cannot name the
ground energy (``errors.TauRangeError``), a ``NaN`` or ``Infinity`` token
in a document, a number that is not finite with magnitude at most 2^500
(``qcore.MAX_MAGNITUDE``), an eigendecomposition that does not converge,
and an ``asp`` sweep whose phase scale max|E|*T passes 2^24.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import asp, ipea, molham, probe, qcore
from .errors import MolphaseError, ParseError, ValidationError


def parse_angle(text: str) -> float:
    """Angle in fractions of a turn; a 'deg' suffix divides by 360."""
    t = text.strip().lower()
    try:
        if t.endswith("deg"):
            return float(t[:-3]) / 360.0
        return float(t)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r} (use turns or e.g. '5deg')") from None


def load_source(source: str) -> molham.MolecularHamiltonian:
    """Resolve --hamiltonian: the built-in 'h2' or a JSON document path."""
    if source == "h2":
        return molham.build_h2()
    path = Path(source)
    if not path.is_file():
        raise ValidationError(f"Hamiltonian document not found: {source}")
    try:
        document = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"Hamiltonian document {source} is not UTF-8: byte {exc.start}: {exc.reason}") from None
    return molham.load_hamiltonian(document)


def _require_out_dir(out: str) -> None:
    """Reject an --out that names, or lies below, an existing non-directory."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(f"--out {out}: {path} exists and is not a directory")
            return


def resolve_tau(text: str, h: molham.MolecularHamiltonian) -> float:
    if text == "auto":
        return molham.choose_tau(h)
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse tau {text!r} (number or 'auto')") from None


def _iteration_config(args, h: molham.MolecularHamiltonian) -> ipea.IterationConfig:
    """The operating point from --bits, --iterations, --errbd and --tau."""
    tau = resolve_tau(args.tau, h)
    return ipea.IterationConfig(
        bits_per_iteration=args.bits,
        iterations=args.iterations,
        phase_error_bound=parse_angle(args.errbd),
        tau=tau,
    )


def _jitter_noise(args) -> probe.NoiseModel:
    """Readout jitter from --jitter, seeded by --seed."""
    return probe.NoiseModel(phase_jitter_bound=parse_angle(args.jitter), rng_seed=args.seed)


def _write(out_dir: str, name: str, text: str) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text)
    return path


def cmd_eig(args) -> int:
    h = load_source(args.hamiltonian)
    dec = qcore.hermitian_eig(h.matrix)
    report = {
        "label": h.label,
        "energies": [float(e) for e in dec.energies],
        "ground_state_re": [float(x) for x in dec.ground_state.real],
        "ground_state_im": [float(x) for x in dec.ground_state.imag],
        "metadata": dict(h.metadata),
    }
    path = _write(args.out, "eig_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"energies ({h.label}): " + ", ".join(f"{e:.6f}" for e in dec.energies))
    print(f"ground energy: {dec.ground_energy:.4f} hartree")
    print(f"report: {path}")
    return 0


def _bit_table(running: list[ipea.PhaseEstimate], n: int, oracle_ph: float) -> str:
    """Per-iteration bit strings of the prefix estimates, newest n bits bracketed."""
    lines = []
    for k, prefix in enumerate(running):
        digits = prefix.binary_digits
        lines.append(f"k={k}  0.{digits[: n * k]} [{digits[n * k:]}]")
    lines.append(f"oracle 0.{ipea.to_binary(oracle_ph, n * len(running))}")
    return "\n".join(lines) + "\n"


def cmd_ipea(args) -> int:
    h = load_source(args.hamiltonian)
    config = _iteration_config(args, h)
    result = ipea.run_ipea(h, config, noise=_jitter_noise(args))
    oracle_e = result.energy.oracle_energy
    oracle_ph = ipea.oracle_phase(h, config.tau)
    running = ipea.running_estimates(result.records, args.bits, config.phase_error_bound)

    trace_path = _write(args.out, "ipea_trace.csv", ipea.trace_csv(result, running))
    table_path = _write(args.out, "ipea_table.txt", _bit_table(running, args.bits, oracle_ph))
    print(f"phase estimate: {result.phase.value:.17g}")
    print(f"energy: {result.energy.energy:.17g} hartree")
    print(f"oracle energy: {oracle_e:.17g} hartree (|dE| = {result.energy.abs_error:.3e})")
    print(f"correct bits vs oracle: {ipea.precision_report(result.phase, oracle_ph)}")
    print(f"trace: {trace_path}")
    print(f"table: {table_path}")
    return 0


def cmd_asp(args) -> int:
    h = load_source(args.hamiltonian)
    if args.scan is not None:
        parts = args.scan.split(":")
        if len(parts) != 3:
            raise ValidationError(f"scan must be start:stop:step, got {args.scan!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"scan bounds must be numbers, got {args.scan!r}") from None
        for bound in (start, stop, step):
            qcore.require_magnitude("scan bound", bound)
        if step <= 0 or stop < start:
            raise ValidationError(f"scan range is empty or descending: {args.scan!r}")
        # the points start + i step up to the stop, which counts as a point
        # when it lies within rounding of one; checked before anything allocates
        intervals = (stop - start) / step + 1e-9
        if intervals >= asp.MAX_POINTS:
            raise ValidationError(f"scan {args.scan!r} has more than {asp.MAX_POINTS} points")
        # np.arange's own points start + i delta, delta = (start + step) - start,
        # counted rather than stopped
        grid = start + np.arange(int(intervals) + 1) * (start + step - start)
    else:
        grid = np.array([args.total_time])
    pairs = asp.scan_total_time(h, args.steps, grid)
    lines = ["total_time,fidelity"]
    lines += [f"{t:.17g},{f:.17g}" for t, f in pairs]
    path = _write(args.out, "asp_scan.csv", "\n".join(lines) + "\n")
    best_t, best_f = max(pairs, key=lambda p: p[1])
    print(f"best: T = {best_t:.17g}, fidelity = {best_f:.17g} ({args.steps} steps)")
    print(f"scan: {path}")
    return 0


def cmd_noise_sweep(args) -> int:
    h = load_source(args.hamiltonian)
    config = _iteration_config(args, h)
    try:
        eps_values = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse epsilon grid {args.epsilons!r}") from None
    if not eps_values:
        raise ValidationError(f"epsilon grid is empty: {args.epsilons!r}")
    noises = [probe.NoiseModel(coherent_epsilon=eps) for eps in eps_values]  # every epsilon token checked before any run
    results = [ipea.run_ipea(h, config, noise=noise) for noise in noises]
    theta0 = ipea.oracle_phase(h, config.tau)

    rows = []
    summaries = []
    for eps, result in zip(eps_values, results):
        errors = ipea.iteration_phase_errors(result.records, theta0, args.bits)
        bits = ipea.precision_report(result.phase, theta0)
        # at eps = 0 the errors are the reference chain's own rounding, whose growth measures nothing
        ratio = fit_growth_ratio(errors, config.phase_error_bound) if eps > 0.0 else None
        ratio_txt = f"{ratio:.17g}" if ratio is not None else ""
        for k, err in enumerate(errors):
            rows.append(f"{eps:.17g},{k},{err:.17g},{ratio_txt},{bits}")
        summaries.append((eps, ratio, bits))
    header = "epsilon,k,phase_error,growth_ratio,attainable_bits"
    path = _write(args.out, "noise_sweep.csv", "\n".join([header] + rows) + "\n")
    for eps, ratio, bits in summaries:
        ratio_txt = f"{ratio:.3f}" if ratio is not None else "n/a"
        print(f"epsilon = {eps:g}: growth ratio = {ratio_txt}, attainable bits = {bits}")
    print(f"sweep: {path}")
    return 0


def fit_growth_ratio(errors, error_bound: float) -> float | None:
    """Geometric-mean per-iteration growth over the pre-saturation window."""
    cut = next((i for i, e in enumerate(errors) if e >= error_bound), len(errors))
    window = [e for e in errors[:cut] if e > 1e-15]
    if len(window) < 2:
        return None
    return float((window[-1] / window[0]) ** (1.0 / (len(window) - 1)))


def cmd_spectra(args) -> int:
    h = load_source(args.hamiltonian)
    result = ipea.run_ipea(h, _iteration_config(args, h), noise=_jitter_noise(args))

    reference = probe.synthesize_spectrum(0.0)
    traces = [("spectrum_k-1.csv", -1, reference, 0.0)]
    for k, rec in enumerate(result.records):
        trace = probe.synthesize_spectrum(rec.measured_phase)
        extracted = probe.extract_phase_from_spectrum(trace, reference)
        traces.append((f"spectrum_k{k}.csv", k, trace, extracted))
    manifest = {
        f"k={k}": {"file": name, "extracted_phase": float(phase)}
        for name, k, _, phase in traces
    }
    for name, _, trace, _ in traces:
        _write(args.out, name, probe.spectrum_csv(trace))
    _write(args.out, "spectra_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(traces)} spectra and manifest to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molphase",
        description="Iterative phase-estimation simulator for molecular ground-state energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hamiltonian", default="h2", help="built-in 'h2' or JSON document path")
    common.add_argument("--out", default=".", help="output directory")

    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument("--tau", default="auto", help="evolution time in a.u., or 'auto'")
    iteration.add_argument("--bits", type=int, default=3, help="bits per iteration (n)")
    iteration.add_argument("--iterations", type=int, default=6, help="iteration count (k_max)")
    iteration.add_argument("--errbd", default="5deg", help="phase error bound (turns or Ndeg)")

    jitter = argparse.ArgumentParser(add_help=False)
    jitter.add_argument("--jitter", default="0", help="measurement jitter bound (turns or Ndeg)")
    jitter.add_argument("--seed", type=int, default=0, help="jitter RNG seed")

    p = sub.add_parser("eig", parents=[common], help="exact diagonalization report")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("ipea", parents=[common, iteration, jitter], help="iterative phase estimation")
    p.set_defaults(func=cmd_ipea)

    p = sub.add_parser("asp", parents=[common], help="adiabatic preparation fidelity scan")
    p.add_argument("--steps", type=int, default=6, help="number of slices M, at s_m = m/(M-1)")
    times = p.add_mutually_exclusive_group(required=True)
    times.add_argument("--total-time", type=float, help="single total time T (a.u.)")
    times.add_argument("--scan", help="total-time grid start:stop:step")
    p.set_defaults(func=cmd_asp)

    p = sub.add_parser("noise-sweep", parents=[common, iteration],
                       help="coherent-error growth across epsilon values")
    p.add_argument("--epsilons", default="0,1e-5,1e-4,1e-3",
                   help="comma-separated perturbation strengths (hartree)")
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("spectra", parents=[common, iteration, jitter],
                       help="synthesize per-iteration spectra plus reference")
    p.set_defaults(func=cmd_spectra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_out_dir(args.out)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MolphaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
