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
the same records. The script calls only
``run_ipea``, ``run_pulse_backend``, ``run_asp`` and the model builders,
and sets the +-bound draws by overriding ``NoiseModel.jitter_draws``, so
it runs unchanged against an older source tree; comparing its output
between two trees shows whether a change moved any estimate:

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
    parts = [f"{r.k}:{r.measured_phase.hex()}:{r.clipped_phase.hex()}:{r.operator_power}" for r in records]
    parts += [
        phase.value.hex(), phase.binary_digits, str(phase.guaranteed_bits),
        energy.energy.hex(), energy.abs_error.hex(),
    ]
    return ";".join(parts) + "\n"


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


def main():
    for name, results in families():
        digest = hashlib.sha256("".join(run_text(r) for r in results).encode()).hexdigest()
        print(f"{name} {len(results)} {digest}")


if __name__ == "__main__":
    main()
