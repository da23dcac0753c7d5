"""Print one SHA-256 digest per family of estimation runs.

Each family hashes, for every run, the iteration records (measured and
clipped phase, operator power), the rebuilt phase with its binary digits
and guaranteed bits, the energy and its error against the oracle. Floats
enter as ``float.hex``, so a digest moves with any change in any bit.

Families: the exact engine; jittered runs under the uniform law and
under +-bound draws, on H2 and a 4x4 model; coherent operator errors;
runs from an adiabatically prepared state; 2x2 systems whose ground phase
lies 2g from a whole turn, g = bound * 2^(-n (k-1)) being the final error
bound, the runs closest to the check that the phase can name the ground
energy; the pulse backend up to 17 iterations; and runs on equal
matrices held by separate instances (H2 built twice, the 4x4 model
loaded twice from one document) before and after more distinct systems
than ``qcore.hermitian_eig`` keeps decompositions of, so that a shared
decomposition, a fresh one and one evicted and made again must all give
the same records. A last family, ``sweep``, hashes the adiabatic sweep
itself on H2 and H2-like targets with real and complex couplings, at 1,
2, 6 and 37 steps over the README scan grid and an irregular one: every
``scan_total_time`` fidelity, every ``run_asp`` final state and per-step
fidelity, and every ``trotter_step`` unitary of those schedules. The
script calls only ``run_ipea``, ``run_pulse_backend``, ``run_asp``,
``scan_total_time``, ``trotter_step`` and the model builders, and sets
the +-bound draws by overriding ``NoiseModel.jitter_draws``, so it runs
unchanged against an older source tree; comparing its output between two
trees shows whether a change moved any estimate or sweep:

    PYTHONPATH=src python -W error tools/record_digest.py
"""
import hashlib
import json
import warnings

import numpy as np

from molphase import asp, ipea, molham, nmrpulse, probe

SEEDS = range(300)
BOUND_5DEG = 5.0 / 360.0
MATRIX_4X4 = np.array([
    [-1.85, 0.18, 0.06, 0.02],
    [0.18, -1.25, 0.09, 0.04],
    [0.06, 0.09, -0.90, 0.12],
    [0.02, 0.04, 0.12, -0.25],
])
TAU_4X4 = 1.9
DOC_4X4 = json.dumps({"label": "4x4", "dim": 4, "matrix_re": MATRIX_4X4.tolist()})
EVICTING_SYSTEMS = 300  # more than the 256 decompositions qcore.hermitian_eig keeps
G_5DEG = BOUND_5DEG * 2.0 ** (-3 * 5)  # final error bound at n = 3, k = 6
# (H11, H22, H12) of the H2-like sweep targets: three real couplings, three complex
SWEEP_TARGETS = (
    (-1.9, -0.3, 0.2), (-2.15, -0.05, 0.38), (-1.45, -0.55, 0.06),
    (-1.9, -0.3, 0.16 + 0.12j), (-2.05, -0.4, -0.07 + 0.31j), (-1.6, -0.2, 0.05 - 0.09j),
)
SWEEP_STEPS = (1, 2, 6, 37)
SWEEP_GRIDS = (np.arange(1.0, 30.0 + 1e-9, 0.5), np.array([0.3, 0.7, 2.5, 9.5, 12.3, 50.0]))


class SignJitter(probe.NoiseModel):
    """Draws of exactly +bound or -bound, the extremes the bound allows,
    each sign a fair coin flipped on the stream seeded by ``rng_seed``."""

    def jitter_draws(self, count):
        rng, bound = np.random.default_rng(self.rng_seed), self.phase_jitter_bound
        return [bound if rng.random() < 0.5 else -bound for _ in range(count)]


def edge_bound(n):
    """A bound just inside the admissibility edge (2^(n+1) + 2) * bound < 1."""
    return 0.9999 / (2.0 ** (n + 1) + 2.0)


def ground_phase_system(theta0):
    """diag(-2 theta0, 1 - 2 theta0), whose ground phase at the automatic tau is theta0."""
    return molham.MolecularHamiltonian(np.diag([-2.0 * theta0, 1.0 - 2.0 * theta0]), label="window edge")


def run_text(result):
    records, phase, energy = result
    n = len(phase.binary_digits) // len(records)
    parts = [f"{k}:{r.measured_phase.hex()}:{r.clipped_phase.hex()}:{2 ** (n * k)}" for k, r in enumerate(records)]
    parts += [
        phase.value.hex(), phase.binary_digits, str(phase.guaranteed_bits),
        energy.energy.hex(), energy.abs_error.hex(),
    ]
    return ";".join(parts) + "\n"


def hexes(values):
    """``float.hex`` of every real and imaginary part, joined by colons."""
    z = np.asarray(values, dtype=complex).ravel()
    return ":".join(f"{float(v.real).hex()}:{float(v.imag).hex()}" for v in z)


def sweep_texts():
    """One text per scan, and one per run_asp with the trotter_step unitaries of its schedule."""
    targets = [molham.build_h2()] + [
        molham.MolecularHamiltonian(np.array([[h11, h12], [np.conj(h12), h22]]), label="H2-like")
        for h11, h22, h12 in SWEEP_TARGETS
    ]
    for target in targets:
        for steps in SWEEP_STEPS:
            for grid in SWEEP_GRIDS:
                scan = asp.scan_total_time(target, steps, grid)
                yield "scan;" + ";".join(f"{t.hex()}:{f.hex()}" for t, f in scan) + "\n"
                for total_time in grid:
                    schedule = asp.AdiabaticSchedule(steps=steps, total_time=float(total_time), target=target)
                    result = asp.run_asp(schedule)
                    delta = schedule.total_time / steps
                    yield ";".join(
                        [hexes(result.final_state), result.fidelity.hex(), hexes(result.per_step_fidelities)]
                        + [hexes(asp.trotter_step(target, s_m, delta)) for s_m in schedule.s_values()]
                    ) + "\n"


def families():
    h2 = molham.build_h2()
    h4 = molham.MolecularHamiltonian(MATRIX_4X4, label="4x4")
    tau2 = molham.choose_tau(h2)

    def config(n=3, k=6, bound=BOUND_5DEG, tau=tau2):
        return ipea.IterationConfig(bits_per_iteration=n, iterations=k, phase_error_bound=bound, tau=tau)

    yield "exact", (
        [ipea.run_ipea(h2, config(n, k)) for n, k in ((1, 52), (2, 26), (3, 6), (3, 17), (4, 13), (5, 10))]
        + [ipea.run_ipea(h4, config(tau=TAU_4X4))]
    )
    yield "jittered-uniform-h2", [
        ipea.run_ipea(h2, config(), noise=probe.NoiseModel(phase_jitter_bound=BOUND_5DEG, rng_seed=s))
        for s in SEEDS
    ]
    yield "jittered-uniform-4x4", [
        ipea.run_ipea(h4, config(tau=TAU_4X4), noise=probe.NoiseModel(phase_jitter_bound=BOUND_5DEG, rng_seed=s))
        for s in SEEDS
    ]
    yield "jittered-sign-h2", [
        ipea.run_ipea(
            h2, config(n, k, edge_bound(n)),
            noise=SignJitter(phase_jitter_bound=edge_bound(n), rng_seed=s),
        )
        for n, k in ((1, 52), (2, 26), (3, 17))
        for s in SEEDS
    ]
    yield "jittered-sign-4x4", [
        ipea.run_ipea(
            h4, config(tau=TAU_4X4),
            noise=SignJitter(phase_jitter_bound=BOUND_5DEG, rng_seed=s),
        )
        for s in SEEDS
    ]
    yield "coherent", [
        ipea.run_ipea(h2, config(), noise=probe.NoiseModel(phase_jitter_bound=bound, coherent_epsilon=eps, rng_seed=s))
        for eps in (1e-5, 1e-4, 1e-3)
        for bound in (0.0, BOUND_5DEG)
        for s in range(100)
    ]
    prepared = asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2)).final_state
    with warnings.catch_warnings():
        # this preparation overlaps the ground state by less than 0.999
        warnings.simplefilter("ignore", UserWarning)
        yield "prepared", [ipea.run_ipea(h2, config(), prep=prepared)] + [
            ipea.run_ipea(h2, config(), prep=prepared, noise=probe.NoiseModel(phase_jitter_bound=BOUND_5DEG, rng_seed=s))
            for s in range(100)
        ]
    yield "window-edge", [
        ipea.run_ipea(h, config(tau=molham.choose_tau(h)), noise=probe.NoiseModel(phase_jitter_bound=BOUND_5DEG, rng_seed=s))
        for h in (ground_phase_system(2.0 * G_5DEG), ground_phase_system(1.0 - 2.0 * G_5DEG))
        for s in range(100)
    ]
    yield "pulse", [
        nmrpulse.run_pulse_backend(h2, config(k=k), over_rotation=rot)
        for rot in (0.0, 1e-4, 1e-3)
        for k in (6, 12, 17)
    ]

    def shared_runs(h2_copy, h4_copy):
        noise = [probe.NoiseModel(phase_jitter_bound=BOUND_5DEG, rng_seed=s) for s in range(50)]
        return [ipea.run_ipea(h2_copy, config(), noise=n) for n in noise] + [
            ipea.run_ipea(h4_copy, config(tau=TAU_4X4), noise=n) for n in noise
        ]

    evicting = [ground_phase_system(t) for t in np.linspace(0.1, 0.9, EVICTING_SYSTEMS)]
    yield "shared-content", (
        shared_runs(molham.build_h2(), molham.load_hamiltonian(DOC_4X4))
        + [ipea.run_ipea(h, config(tau=molham.choose_tau(h))) for h in evicting]
        + shared_runs(molham.build_h2(), molham.load_hamiltonian(DOC_4X4))
    )


def print_digest(name, texts):
    print(f"{name} {len(texts)} {hashlib.sha256(''.join(texts).encode()).hexdigest()}")


def main():
    for name, results in families():
        print_digest(name, [run_text(r) for r in results])
    print_digest("sweep", list(sweep_texts()))


if __name__ == "__main__":
    main()
