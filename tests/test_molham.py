"""Hamiltonian construction, tau selection, and the document format."""
import json

import numpy as np
import pytest

from molphase import cli, ipea, molham, nmrpulse, qcore
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
        # the label is an argument of require_gap's name template, never the template
        with pytest.raises(DegeneracyError, match="^ground state of '50%s' is degenerate: gap 0.000e"):
            molham.spectrum(molham.MolecularHamiltonian(np.eye(2), label="50%s"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", [[[-1.0, 1e308], [1e308, 1.0]], [[-1e308, 0.1], [0.1, 1.7e308]]])
    def test_gap_past_the_largest_float_rejected(self, matrix):
        # numpy warned "overflow encountered in scalar subtract" (exit 1). Such
        # entries are refused where the Hamiltonian is built; at the bound the gap is finite
        with pytest.raises(ValidationError, match=r"'wide' has a non-finite entry or one past 2\^500 in magnitude"):
            molham.MolecularHamiltonian(np.array(matrix), label="wide")
        at_bound = np.clip(matrix, -qcore.MAX_MAGNITUDE, qcore.MAX_MAGNITUDE)
        energies = molham.spectrum(molham.MolecularHamiltonian(at_bound, label="wide")).energies
        assert 2.0**500 <= energies[1] - energies[0] < np.inf

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
                assert molham.choose_tau(h) == pytest.approx(expected, rel=1e-12)

    def test_near_degenerate_system_gets_its_tau(self):
        # gap 5e-10 <= GAP_TOL: spectrum() refuses the system, choose_tau does not
        h = molham.MolecularHamiltonian(np.array([[0.0, 2.5e-10], [2.5e-10, 0.0]]), label="near")
        assert molham.choose_tau(h) == np.pi / 5e-10
        with pytest.raises(DegeneracyError):
            molham.spectrum(h)

    # Ground phases -E0 tau / 2 pi outside the window at the automatic tau:
    # -0.005 for E0 = 0.01 > 0, exactly 0 for E0 = 0, and 5 / pi, past a
    # whole turn, for E0 = -10 with spread pi.
    OUTSIDE_THE_WINDOW = [[0.01, 1.01], [0.0, 1.0], [-10.0, -10.0 + np.pi]]

    @pytest.mark.parametrize("diagonal", OUTSIDE_THE_WINDOW)
    def test_tau_is_pi_over_the_spread(self, diagonal):
        # choose_tau judges no ground phase; the runs do
        h = molham.MolecularHamiltonian(np.diag(diagonal))
        assert molham.choose_tau(h) == np.pi / abs(diagonal[0] - diagonal[1])

    @pytest.mark.parametrize("diagonal", OUTSIDE_THE_WINDOW)
    def test_runs_reject_the_ground_phase_at_that_tau(self, diagonal, tmp_path, capsys):
        h = molham.MolecularHamiltonian(np.diag(diagonal), label="outside")
        config = ipea.IterationConfig(tau=molham.choose_tau(h))
        with pytest.raises(TauRangeError, match="outside the window"):
            ipea.run_ipea(h, config)
        with pytest.raises(TauRangeError, match="outside the window"):
            nmrpulse.run_pulse_backend(h, config)
        doc = tmp_path / "outside.json"
        doc.write_text(json.dumps({"dim": 2, "matrix_re": np.diag(diagonal).tolist()}))
        out = tmp_path / "out"
        assert cli.main(["ipea", "--hamiltonian", str(doc), "--out", str(out)]) == 2
        assert "outside the window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_subnormal_spread_gives_an_infinite_tau(self):
        # numpy warned "overflow encountered in scalar divide"; IterationConfig
        # rejects the tau
        h = molham.MolecularHamiltonian(np.diag([5e-324, 0.0]))
        assert molham.choose_tau(h) == np.inf
        with pytest.raises(ValidationError, match=r"tau must be finite with magnitude at most 2\^500, got inf"):
            ipea.IterationConfig(tau=molham.choose_tau(h))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "matrix",
        [[[-1.0, 1e308], [1e308, 1.0]], [[-7.5e307, 6e307], [6e307, 7.5e307]]],
        ids=["overflowing-terms", "overflowing-hypot"],
    )
    def test_spread_past_the_largest_float_rejected(self, matrix):
        # numpy warned "overflow encountered in scalar multiply" or "in hypot";
        # without the warning the tau was 0.0. Such entries are refused where
        # the Hamiltonian is built; at the bound the spread is finite
        with pytest.raises(ValidationError, match=r"'wide' has a non-finite entry or one past 2\^500 in magnitude"):
            molham.MolecularHamiltonian(np.array(matrix), label="wide")
        at_bound = np.clip(matrix, -qcore.MAX_MAGNITUDE, qcore.MAX_MAGNITUDE)
        assert 0.0 < molham.choose_tau(molham.MolecularHamiltonian(at_bound, label="wide")) < 2.0**-499

    def test_multiple_of_the_identity_is_degenerate(self):
        # no spread sets a tau; it raised TauRangeError
        h = molham.MolecularHamiltonian(np.diag([1.0, 1.0]), label="id")
        with pytest.raises(DegeneracyError, match="'id' is degenerate"):
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
            # json.loads read these tokens as floats; Infinity in matrix_im made
            # numpy warn "invalid value encountered in multiply" (exit 1)
            ('{"dim": 2, "matrix_re": [[-1, 0], [0, 1]], "matrix_im": [[0, Infinity], [-Infinity, 0]]}',
             "unreadable JSON: Infinity is not a number"),
            ('{"dim": 2, "matrix_re": [[-1, 0], [0, -Infinity]]}', "unreadable JSON: -Infinity is not a number"),
            ('{"dim": 1, "matrix_re": [[NaN]]}', "unreadable JSON: NaN is not a number"),
            ('{"label": NaN, "dim": 1, "matrix_re": [[0]]}', "unreadable JSON: NaN is not a number"),
        ],
        ids=[
            "huge-integer", "huge-imaginary-integer", "deep-nesting", "integer-past-digit-limit",
            "infinity-in-matrix-im", "minus-infinity-in-matrix-re", "nan-in-matrix-re", "nan-label",
        ],
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
