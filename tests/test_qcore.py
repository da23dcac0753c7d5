"""Linear-algebra core: eigensolver, matrix exponential, power chain, states."""
import math

import numpy as np
import pytest

from molphase import asp, ipea, molham, nmrpulse, probe, qcore
from molphase.errors import ComputationError, ValidationError
from molphase.molham import H2_MATRIX

from conftest import (
    H2_GROUND_ENERGY,
    H2_TAU,
    MATRIX_4X4,
    TAU_4X4,
    h2_like_targets,
    random_hermitian,
    random_unitary,
)


# eigh did not converge on this matrix with numpy's OpenBLAS LAPACK; its
# 1e300 entries are now refused
UNCONVERGED = np.array([
    [-1.8, -1.8, 1e300, -1.8], [-1.8, 1e8, -0.5, 1e16], [1e300, -0.5, -1.0, 1e8], [-1.8, 1e16, 1e8, 1e16],
])
PAST_THE_BOUND = r"matrix has a non-finite entry or one past 2\^500 in magnitude: "


H2 = molham.build_h2()
ESTIMATE = ipea.reconstruct([ipea.IterationRecord(0.1, 0.1)], 3, 0.0)
# Every entry point whose scalar goes through require_positive (zero refused)
# or require_nonnegative (zero accepted): the name it reports and the call.
SIGN_JUDGED = [
    ("total time", True, lambda x: asp.AdiabaticSchedule(6, x, H2)),
    ("step duration", True, lambda x: asp.trotter_step(H2, 0.5, x)),
    ("tau", True, lambda x: ipea.IterationConfig(tau=x)),
    ("tau", True, lambda x: ipea.energy_from_phase(ESTIMATE, x, -1.0)),
    ("phase error bound", False, lambda x: ipea.IterationConfig(phase_error_bound=x)),
    ("jitter bound", False, lambda x: probe.NoiseModel(phase_jitter_bound=x)),
    ("coherent epsilon", False, lambda x: probe.NoiseModel(coherent_epsilon=x)),
    ("delay duration", False, lambda x: nmrpulse.DelayEvent(x)),
]


class TestScalarJudges:
    @pytest.mark.parametrize("name, positive, call", SIGN_JUDGED, ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(SIGN_JUDGED)])
    def test_each_entry_point_judges_magnitude_then_sign(self, name, positive, call):
        rule = "must be positive" if positive else "must be >= 0"
        for value in (-1e-300, -1.0):
            with pytest.raises(ValidationError, match=f"^{name} {rule}, got {value}$"):
                call(value)
        for value in (0.0, -0.0):
            if positive:
                with pytest.raises(ValidationError, match=f"^{name} must be positive, got {value}$"):
                    call(value)
            else:
                call(value)
        call(1e-3)
        for value in (math.nan, math.inf, -math.inf, -(2.0**501)):
            with pytest.raises(ValidationError, match=f"^{name} must be finite with magnitude at most 2\\^500, got "):
                call(value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("name, positive, call", SIGN_JUDGED, ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(SIGN_JUDGED)])
    def test_a_narrow_numpy_float_is_judged_without_a_warning(self, name, positive, call, dtype):
        # compared in its own type, 2^500 overflowed to inf: "overflow encountered in cast"
        call(dtype(1e-3))
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValidationError, match=f"^{name} must be finite with magnitude at most 2\\^500, got {value}$"):
                call(dtype(value))
        rule = "must be positive" if positive else "must be >= 0"
        with pytest.raises(ValidationError, match=f"^{name} {rule}, got -0.5$"):
            call(dtype(-0.5))

    def test_an_int_past_the_digit_limit_is_refused_by_its_size(self):
        # str() of such an int raised ValueError (the 4300-digit limit) in place of the message
        huge = 10**5000
        shown = "an integer of 16610 bits"
        with pytest.raises(ValidationError, match=f"^tau must be finite with magnitude at most 2\\^500, got {shown}$"):
            ipea.IterationConfig(tau=huge)
        with pytest.raises(ValidationError, match=f"^coherent epsilon must be finite .* got {shown}$"):
            probe.NoiseModel(coherent_epsilon=huge)
        with pytest.raises(ValidationError, match=f"^x must be finite .* got {shown}$"):
            qcore.require_nonnegative("x", -huge)
        with pytest.raises(ValidationError, match=f"^rng seed must be >= 0, got {shown}$"):
            probe.NoiseModel(rng_seed=-huge)
        with pytest.raises(ValidationError, match=f"^digit count must be <= 52, got {shown}$"):
            ipea.to_binary(0.5, huge)
        # within the bound an int is shown in full
        with pytest.raises(ValidationError, match=f"^x must be positive, got {-(2**500)}$"):
            qcore.require_positive("x", -(2**500))


class TestHermitianEig:
    def test_h2_ground_energy_matches_reported_value(self):
        dec = qcore.hermitian_eig(H2_MATRIX)
        assert dec.ground_energy == pytest.approx(-1.8516, abs=5e-5)

    def test_h2_against_closed_form(self):
        dec = qcore.hermitian_eig(H2_MATRIX)
        mean = (H2_MATRIX[0, 0] + H2_MATRIX[1, 1]).real / 2.0
        r = np.hypot((H2_MATRIX[0, 0] - H2_MATRIX[1, 1]).real / 2.0, H2_MATRIX[0, 1].real)
        np.testing.assert_allclose(dec.energies, [mean - r, mean + r], atol=1e-12)

    def test_identity_eigenvalues(self):
        dec = qcore.hermitian_eig(np.eye(2))
        np.testing.assert_allclose(dec.energies, [1.0, 1.0], atol=1e-14)

    def test_sigma_x_spectrum_and_ground_state(self):
        dec = qcore.hermitian_eig(qcore.SIGMA_X)
        np.testing.assert_allclose(dec.energies, [-1.0, 1.0], atol=1e-14)
        overlap = abs(np.vdot(dec.ground_state, qcore.KET_MINUS))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_residual_over_random_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(1000):
            dim = int(rng.integers(2, 9))
            h = random_hermitian(rng, dim)
            dec = qcore.hermitian_eig(h)
            v = dec.eigenvectors
            assert np.abs((v * dec.energies) @ v.conj().T - h).max() <= 1e-11
            assert np.all(np.diff(dec.energies) >= -1e-14)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() <= 1e-11

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        a = qcore.hermitian_eig(h)
        b = qcore.hermitian_eig(h.copy())
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            qcore.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            qcore.hermitian_eig(np.eye(16))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), r"not Hermitian: \|A\[0\]\[1\] - conj\(A\[1\]\[0\]\)\| = 1.000e\+00"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
            (np.eye(16), "dimension 16 outside 1..8"),
            (np.ones((2, 2, 2)), "must be square"),
            # eigh gave -1, 1, 3.2e307 and inf, and the eig command wrote Infinity
            (
                np.block([[np.array([[1e308, -1e308], [-1e308, np.finfo(float).max]]), np.zeros((2, 2))],
                          [np.zeros((2, 2)), np.diag([-1.0, 1.0])]]),
                PAST_THE_BOUND + r"\(1e\+308\+0j\) at \[0\]\[0\]",
            ),
            # eig and ipea exited 1 on numpy's LinAlgError
            (UNCONVERGED, PAST_THE_BOUND + r"\(1e\+300\+0j\) at \[0\]\[2\]"),
            # the difference overflowed with a numpy warning (exit 1 under -W error)
            (np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]), PAST_THE_BOUND + r"\(1\.7e\+308\+0j\) at \[0\]\[1\]"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejected_input_is_never_kept(self, matrix, message):
        before = qcore._decompose.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValidationError, match=message):
                qcore.hermitian_eig(matrix)
        assert qcore._decompose.cache_info().currsize == before

    def test_unconverged_eigensolver_is_bad_input_and_never_kept(self, monkeypatch):
        def unconverged(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        qcore._decompose.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        for _ in range(2):
            with pytest.raises(ValidationError, match="eigendecomposition failed: Eigenvalues did not converge"):
                qcore.hermitian_eig(H2_MATRIX)
        assert qcore._decompose.cache_info().currsize == 0

    def test_equal_contents_share_one_decomposition(self):
        rng = np.random.default_rng(17)
        for dim in range(1, 9):
            h = random_hermitian(rng, dim)
            dec = qcore.hermitian_eig(h)
            # any array with the same complex128 entries hits, and a hit is
            # the very result of eigh on those entries
            assert qcore.hermitian_eig(h.copy()) is dec
            vals, vecs = np.linalg.eigh(h)
            assert (dec.energies == vals).all() and (dec.eigenvectors == vecs).all()
            assert qcore.hermitian_eig(np.asfortranarray(h)) is dec
            assert not dec.energies.flags.writeable and not dec.eigenvectors.flags.writeable
        real = [[-1.0, 0.5], [0.5, 2.0]]
        assert qcore.hermitian_eig(real) is qcore.hermitian_eig(np.array(real, dtype=complex))

    def test_cache_is_bounded_and_evicted_content_decomposes_again(self):
        qcore._decompose.cache_clear()
        rng = np.random.default_rng(23)
        first = random_hermitian(rng, 8)
        kept = qcore.hermitian_eig(first)
        for _ in range(qcore.EIG_CACHE_SIZE):
            qcore.hermitian_eig(random_hermitian(rng, 8))
        assert qcore._decompose.cache_info().currsize == qcore.EIG_CACHE_SIZE
        again = qcore.hermitian_eig(first)
        assert again is not kept
        assert again.energies.tobytes() == kept.energies.tobytes()
        assert again.eigenvectors.tobytes() == kept.eigenvectors.tobytes()
        assert qcore._decompose.cache_info().currsize == qcore.EIG_CACHE_SIZE


@pytest.mark.filterwarnings("error")
class TestRequireUnitary:
    @pytest.mark.parametrize(
        "matrix, deviation",
        [
            (random_unitary(np.random.default_rng(5)) * (1.0 + 1e-9), r"2.0\d*e-09"),
            # at 1e200, U†U - I was NaN, which passed the check, or was rejected
            # only after numpy's overflow warning; at the bound it is finite
            (np.array([[2.0**500, 2.0**500], [2.0**500, 2.0**500 * 1j]]), r"2.143e\+301"),
            (np.array([[2.0**500, 0.0], [0.0, 1.0]]), r"1.072e\+301"),
        ],
    )
    def test_rejects_with_no_numpy_warning(self, matrix, deviation):
        with pytest.raises(ValidationError, match=rf"u is not unitary: max\|U†U - I\| = {deviation} > 1.0e-10"):
            qcore.require_unitary(matrix, "u")

    def test_accepts_a_transposed_view(self):
        # a complex transpose has no float view of its own: this raised numpy's ValueError
        u = random_unitary(np.random.default_rng(11))
        assert (qcore.require_unitary(u.T, "u") == u.T).all()


class TestExpmHerm:
    def test_zero_time_is_identity(self):
        np.testing.assert_allclose(qcore.expm_herm(H2_MATRIX, 0.0), np.eye(2), atol=1e-14)

    def test_sigma_z_analytic(self):
        np.testing.assert_allclose(
            qcore.expm_herm(qcore.SIGMA_Z, np.pi / 2), np.diag([-1j, 1j]), atol=1e-14
        )
        np.testing.assert_allclose(
            qcore.expm_herm(qcore.SIGMA_Z, np.pi), -np.eye(2), atol=1e-14
        )

    def test_h2_ground_eigenphase(self):
        u = qcore.expm_herm(H2_MATRIX, H2_TAU)
        g = qcore.hermitian_eig(H2_MATRIX).ground_state
        phase = np.vdot(g, u @ g)
        assert phase == pytest.approx(np.exp(-1j * H2_GROUND_ENERGY * H2_TAU), abs=1e-12)

    def test_unitary_and_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_hermitian(rng, int(rng.integers(2, 9)))
            t = rng.uniform(-3, 3)
            u = qcore.expm_herm(h, t)
            dim = h.shape[0]
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
            assert np.abs(u @ qcore.expm_herm(h, -t) - np.eye(dim)).max() <= 1e-10

    def test_time_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            h = random_hermitian(rng, 2)
            t1, t2 = rng.uniform(-2, 2, size=2)
            lhs = qcore.expm_herm(h, t1 + t2)
            rhs = qcore.expm_herm(h, t1) @ qcore.expm_herm(h, t2)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValidationError):
            qcore.expm_herm(H2_MATRIX, np.inf)

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_time_whose_phase_overflows(self):
        # numpy warned of an overflow and returned nan entries; the time is now
        # refused where it enters, and at the bound every phase is finite
        with pytest.raises(ValidationError, match=r"evolution time must be finite with magnitude at most 2\^500, got 1e\+308"):
            qcore.expm_herm(np.diag([-2.0, 1.0]), 1e308)
        u = qcore.expm_herm(np.diag([-2.0**500, 2.0**500]), 2.0**500)
        assert np.abs(np.abs(np.diagonal(u)) - 1.0).max() <= 1e-15


class TestPhaseFactors:
    def test_equals_exp_of_minus_i_e_t(self):
        rng = np.random.default_rng(3)
        energies, times = rng.uniform(-5, 5, size=(4, 1)), rng.uniform(0, 50, size=7)
        got = qcore.phase_factors(energies, times)
        assert got.shape == (4, 7)
        assert got.tobytes() == np.exp(-1j * (energies * times)).tobytes()
        assert qcore.phase_factors(energies[:, 0], 2.5).tobytes() == np.exp(-1j * (energies[:, 0] * 2.5)).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "energies, t",
        [
            ([-2.0, 1.0], 1e308),
            ([-2.0, 1.0], np.inf),
            ([0.0, 0.0], np.nan),
            ([-1.0, 1e308], 2.0),
            ([[-1.0], [1e10]], np.array([1.0, 1e299])),
            ([-1.0, np.inf], 1.0),
        ],
    )
    def test_rejects_a_product_that_is_not_finite(self, energies, t):
        # phase_factors checked max|E| max|t| on every call. It checks nothing
        # now: each factor is refused where it enters, as a matrix entry or a time
        with pytest.raises(ValidationError, match=r"past 2\^500 in magnitude|at most 2\^500"):
            qcore.expm_herm(np.diag(np.ravel(energies)), np.max(t))


# The chain's two forms: a matrix, and the diagonal of a diagonal matrix.
FORMS = {"matrix": lambda m: m, "diagonal": np.diagonal}


def unitarity_error(m):
    if m.ndim == 1:
        return np.abs(m.conj() * m - 1.0).max()
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()


def form_unitary(rng, form, dim=2):
    """A random unitary; for the diagonal form, a diagonal one."""
    if form == "diagonal":
        return np.diag(np.exp(2j * np.pi * rng.uniform(size=dim)))
    return random_unitary(rng, dim)


def reference_power_chain(u, times, count):
    """The chain built in lists, as ``power_chain`` did before it wrote into stacks."""
    if u.ndim == 1:
        mul, adjoint, eye = np.multiply, np.conj, 1.0
    else:
        mul, adjoint, eye = np.matmul, lambda m: m.conj().T, np.eye(u.shape[0])
    powers = [u]
    for _ in range(1, count):
        m = powers[-1]
        for _ in range(times):
            m = mul(m, m)
        powers.append(mul(m, eye - 0.5 * (mul(adjoint(m), m) - eye)))
    return np.array(powers)


class TestPowerChain:
    @pytest.mark.parametrize("form", FORMS)
    def test_equals_the_list_reference_bit_for_bit(self, form):
        rng = np.random.default_rng(19)
        for dim in (2, 4):
            u = FORMS[form](form_unitary(rng, form, dim))
            chain = qcore.power_chain(u, 3, 6)
            assert chain.dtype == u.dtype and chain.tobytes() == reference_power_chain(u, 3, 6).tobytes()

    @pytest.mark.parametrize("form", FORMS)
    def test_matches_repeated_multiplication(self, form):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            u = form_unitary(rng, form, dim)
            chain = qcore.power_chain(FORMS[form](u), 3, 3)
            assert chain.shape == (3,) + FORMS[form](u).shape
            assert np.array_equal(chain[0], FORMS[form](u))
            for r in (1, 2):
                expected = FORMS[form](np.linalg.matrix_power(u, 8**r))
                assert np.abs(chain[r] - expected).max() <= 1e-13

    @pytest.mark.parametrize("form", FORMS)
    def test_step_restores_unitarity_and_keeps_eigenphases(self, form):
        rng = np.random.default_rng(17)
        u = form_unitary(rng, form)
        drifted = FORMS[form](u) * (1.0 + 1e-8)  # drift 2e-8, above UNITARY_TOL
        m = qcore.power_chain(drifted, 0, 2)[1]
        assert unitarity_error(m) <= 1e-15
        eigenvalues = m if m.ndim == 1 else np.linalg.eigvals(m)
        phases = np.sort(np.angle(eigenvalues))
        assert np.abs(phases - np.sort(np.angle(np.linalg.eigvals(u)))).max() <= 1e-15

    @pytest.mark.parametrize("form", FORMS)
    def test_long_chain_stays_unitary(self, form):
        if form == "matrix":
            u = qcore.expm_herm(H2_MATRIX, H2_TAU)
        else:
            u = np.exp(-1j * H2_TAU * qcore.hermitian_eig(H2_MATRIX).energies)
        chain = qcore.power_chain(u, 3, 18)
        assert max(unitarity_error(m) for m in chain) <= 1e-15

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("m", [2.0 * np.eye(2), np.full((2, 2), np.nan)])
    def test_irrecoverable_drift_is_a_computation_error(self, form, m):
        with pytest.raises(ComputationError, match="round 1 left the unitary group"):
            qcore.power_chain(FORMS[form](m), 1, 2)

    @pytest.mark.parametrize("n, k", [(3, 17), (1, 52)])
    def test_diagonal_chain_equals_the_matrix_chain(self, n, k):
        # on 2x2 systems the elementwise square rounds exactly like the matrix
        # product, which keeps every output of the eigenbasis chain unchanged
        for h in h2_like_targets(20, seed=71):
            factors = np.exp(-1j * molham.choose_tau(h) * molham.spectrum(h).energies)
            matrices = qcore.power_chain(np.diag(factors), n, k)
            diagonal = np.diagonal(matrices, axis1=1, axis2=2)
            assert np.array_equal(qcore.power_chain(factors, n, k), diagonal)
            assert not np.any(matrices * (1.0 - np.eye(2)))

    @pytest.mark.parametrize("n, k", [(3, 17), (1, 52)])
    def test_diagonal_chain_matches_the_matrix_chain_on_4x4(self, n, k):
        # 4x4 matrix products round differently from the elementwise square,
        # and round r multiplies that difference by 2^(n r); the phase of U
        # that each power implies must still agree to rounding
        factors = np.exp(-1j * TAU_4X4 * qcore.hermitian_eig(MATRIX_4X4).energies)
        matrices = qcore.power_chain(np.diag(factors), n, k)
        diagonal = np.diagonal(matrices, axis1=1, axis2=2)
        gap = np.angle(qcore.power_chain(factors, n, k) * diagonal.conj()) / (2.0 * np.pi)
        assert np.abs(gap / 2.0 ** (n * np.arange(k)[:, None])).max() <= 1e-15
