"""Hamiltonian construction, tau selection, and the document format."""
import json

import numpy as np
import pytest

from molphase import molham, qcore
from molphase.errors import DegeneracyError, ParseError, TauRangeError, ValidationError

from conftest import H2_EXCITED_ENERGY, H2_GROUND_ENERGY, H2_TAU, MATRIX_4X4, random_hermitian


class TestBuildH2:
    def test_matrix_entries(self, h2):
        assert h2.matrix[0, 0] == -1.8310
        assert h2.matrix[0, 1] == 0.1813
        assert h2.matrix[1, 0] == 0.1813
        assert h2.matrix[1, 1] == -0.2537

    def test_label_and_metadata(self, h2):
        assert h2.label == "H2/STO-3G"
        assert "1.4" in h2.metadata["nuclear_distance"]

    def test_ground_energy_reported_precision(self, h2):
        assert molham.spectrum(h2).ground_energy == pytest.approx(-1.8516, abs=5e-5)

    def test_ground_energy_closed_form(self, h2):
        assert molham.spectrum(h2).ground_energy == pytest.approx(-1.851571, abs=1e-6)

    def test_matrix_is_immutable(self, h2):
        with pytest.raises(ValueError):
            h2.matrix[0, 0] = 0.0


class TestSpectrum:
    def test_h2_energies(self, h2):
        spec = molham.spectrum(h2)
        np.testing.assert_allclose(
            spec.energies, [H2_GROUND_ENERGY, H2_EXCITED_ENERGY], atol=1e-6
        )

    def test_sigma_x(self):
        spec = molham.spectrum(molham.MolecularHamiltonian(qcore.SIGMA_X, label="sx"))
        np.testing.assert_allclose(spec.energies, [-1.0, 1.0], atol=1e-14)
        assert abs(np.vdot(spec.ground_state, qcore.KET_MINUS)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        spec = molham.spectrum(molham.MolecularHamiltonian(np.diag([-2.0, -1.0]), label="d"))
        np.testing.assert_allclose(spec.energies, [-2.0, -1.0], atol=0)
        np.testing.assert_allclose(np.abs(spec.ground_state), [1.0, 0.0], atol=1e-14)

    def test_degenerate_ground_state_rejected(self):
        h = molham.MolecularHamiltonian(np.eye(2), label="id")
        for _ in range(2):  # the decomposition is kept, the failure is not
            with pytest.raises(DegeneracyError, match="degenerate"):
                molham.spectrum(h)

    def test_decomposes_once_per_hamiltonian(self, h2):
        # instances with equal entries share one decomposition
        assert molham.spectrum(h2) is molham.spectrum(h2)
        assert molham.spectrum(molham.build_h2()) is molham.spectrum(h2)
        doc = json.dumps({"dim": 4, "matrix_re": MATRIX_4X4.tolist()})
        a, b = molham.load_hamiltonian(doc), molham.load_hamiltonian(doc)
        assert a is not b
        assert molham.spectrum(a) is molham.spectrum(b)


class TestChooseTau:
    def test_h2_value(self, h2):
        assert molham.choose_tau(h2) == pytest.approx(1.941122, abs=1e-6)
        assert molham.choose_tau(h2) == pytest.approx(H2_TAU, abs=1e-12)

    def test_constructed_denominator_pi(self):
        h = molham.MolecularHamiltonian(np.diag([-1.0, -1.0 + np.pi]), label="pi-gap")
        assert molham.choose_tau(h) == pytest.approx(1.0, abs=1e-12)

    def test_constructed_denominator_two_pi(self):
        h = molham.MolecularHamiltonian(np.diag([-1.0, -1.0 + 2 * np.pi]), label="2pi-gap")
        assert molham.choose_tau(h) == pytest.approx(0.5, abs=1e-12)

    def test_invariant_under_identity_shift(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = random_hermitian(rng)
            base = molham.MolecularHamiltonian(m, label="a")
            shifted = molham.MolecularHamiltonian(m + 0.37 * np.eye(2), label="b")
            spread = np.hypot(2 * abs(m[0, 1]), (m[0, 0] - m[1, 1]).real)
            if spread < 1e-6:
                continue
            expected = np.pi / spread
            assert expected > 0.0
            for h in (base, shifted):
                try:
                    tau = molham.choose_tau(h)
                    assert tau > 0.0
                    assert tau == pytest.approx(expected, rel=1e-12)
                except TauRangeError:
                    pass  # the range validation may differ under the shift

    def test_near_degenerate_system_gets_its_tau(self):
        # gap 5e-10 <= GAP_TOL: spectrum() refuses the system, choose_tau does not
        h = molham.MolecularHamiltonian(np.array([[0.0, 2.5e-10], [2.5e-10, 0.0]]), label="near")
        assert molham.choose_tau(h) == np.pi / 5e-10
        with pytest.raises(DegeneracyError):
            molham.spectrum(h)

    def test_phase_range_validation(self):
        h = molham.MolecularHamiltonian(np.diag([-10.0, -10.0 + np.pi]), label="deep")
        with pytest.raises(TauRangeError, match="supply tau"):
            molham.choose_tau(h)

    def test_positive_ground_energy_rejected(self):
        # the spread gives tau = pi, but -E0 tau / 2 pi = -0.005, or exactly 0
        # at E0 = 0, names no phase in (0, 1)
        for diagonal in ([0.01, 1.01], [0.0, 1.0]):
            h = molham.MolecularHamiltonian(np.diag(diagonal), label="E0 >= 0")
            with pytest.raises(TauRangeError, match="outside the window"):
                molham.choose_tau(h)

    def test_requires_two_by_two(self):
        h = molham.MolecularHamiltonian(np.diag([-3.0, -2.0, -1.0]), label="3d")
        with pytest.raises(ValidationError, match="2x2"):
            molham.choose_tau(h)


class TestLoadHamiltonian:
    def test_h2_document_round_trip(self, h2):
        doc = {
            "label": "H2/STO-3G",
            "dim": 2,
            "matrix_re": [[-1.8310, 0.1813], [0.1813, -0.2537]],
            "metadata": {"basis": "STO-3G"},
        }
        loaded = molham.load_hamiltonian(json.dumps(doc))
        np.testing.assert_allclose(loaded.matrix, h2.matrix, atol=0)

    def test_dim_one_trivial(self):
        loaded = molham.load_hamiltonian('{"label": "t", "dim": 1, "matrix_re": [[0.0]]}')
        assert loaded.dim == 1
        assert loaded.matrix[0, 0] == 0.0

    def test_non_hermitian_names_entries(self):
        doc = {"label": "bad", "dim": 2, "matrix_re": [[0.0, 1.0], [0.0, 0.0]]}
        with pytest.raises(ValidationError, match=r"A\[0\]\[1\]"):
            molham.load_hamiltonian(json.dumps(doc))

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            molham.load_hamiltonian('{"label": "x",\n  "dim": }')

    def test_missing_dim(self):
        with pytest.raises(ParseError, match="dim"):
            molham.load_hamiltonian('{"label": "x", "matrix_re": [[0.0]]}')

    def test_bad_row_shape(self):
        with pytest.raises(ParseError, match="row"):
            molham.load_hamiltonian('{"dim": 2, "matrix_re": [[0.0, 1.0], [1.0]]}')

    def test_non_numeric_entry(self):
        with pytest.raises(ParseError, match=r"\[0\]\[1\]"):
            molham.load_hamiltonian('{"dim": 2, "matrix_re": [[0.0, "x"], [1.0, 0.0]]}')

    @pytest.mark.parametrize(
        "document, message",
        [
            # np.array(rows, dtype=float) raised OverflowError (exit 1)
            ('{"dim": 1, "matrix_re": [[1' + "0" * 400 + "]]}", "'matrix_re' has an integer entry beyond float range"),
            ('{"dim": 1, "matrix_re": [[0]], "matrix_im": [[-1' + "0" * 400 + "]]}", "'matrix_im'"),
            # json.loads raised RecursionError, and ValueError past int()'s digit limit
            ('{"dim": 1, "matrix_re": ' + "[" * 100000 + "]" * 100000 + "}", "unreadable JSON"),
            ('{"dim": 1, "matrix_re": [[1' + "0" * 5000 + "]]}", "unreadable JSON"),
        ],
        ids=["huge-integer", "huge-imaginary-integer", "deep-nesting", "integer-past-digit-limit"],
    )
    def test_unreadable_numbers_and_nesting_raise_parse_error(self, document, message):
        with pytest.raises(ParseError, match=message):
            molham.load_hamiltonian(document)

    def test_bad_metadata(self):
        doc = '{"dim": 1, "matrix_re": [[0.0]], "metadata": {"a": 1}}'
        with pytest.raises(ParseError, match="metadata"):
            molham.load_hamiltonian(doc)

    def test_serialize_load_identity(self, h2):
        rng = np.random.default_rng(17)
        cases = [h2]
        for i in range(10):
            cases.append(
                molham.MolecularHamiltonian(
                    random_hermitian(rng, int(rng.integers(1, 5))),
                    label=f"case{i}",
                    metadata={"seed": str(i)},
                )
            )
        for h in cases:
            document = json.dumps({
                "label": h.label,
                "dim": h.dim,
                "matrix_re": h.matrix.real.tolist(),
                "matrix_im": h.matrix.imag.tolist(),
                "metadata": h.metadata,
            })
            again = molham.load_hamiltonian(document)
            assert again.label == h.label
            assert again.metadata == h.metadata
            np.testing.assert_allclose(again.matrix, h.matrix, atol=0)
