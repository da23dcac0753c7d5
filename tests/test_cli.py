"""Command-line interface: commands, exit codes, file outputs, determinism."""
import json

import numpy as np
import pytest

from molphase import asp, cli, ipea, molham, qcore

from conftest import H2_GROUND_ENERGY, H2_PHASE


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestParseAngle:
    def test_degree_suffix(self):
        assert cli.parse_angle("5deg") == pytest.approx(5.0 / 360.0)

    def test_bare_turns(self):
        assert cli.parse_angle("0.01") == 0.01

    def test_junk_rejected(self):
        with pytest.raises(Exception, match="angle"):
            cli.parse_angle("fivedeg")


class TestEig:
    def test_h2(self, tmp_path, capsys):
        assert cli.main(["eig", "--hamiltonian", "h2", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "-1.8516" in out
        report = json.loads((tmp_path / "eig_report.json").read_text())
        assert report["energies"][0] == pytest.approx(H2_GROUND_ENERGY, abs=1e-9)
        assert report["label"] == "H2/STO-3G"

    def test_identity_document(self, tmp_path, capsys):
        doc = tmp_path / "identity.json"
        doc.write_text('{"label": "id", "dim": 2, "matrix_re": [[1.0, 0.0], [0.0, 1.0]]}')
        assert cli.main(["eig", "--hamiltonian", str(doc), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "eig_report.json").read_text())
        np.testing.assert_allclose(report["energies"], [1.0, 1.0], atol=1e-12)

    def test_malformed_document_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_text('{"label": "x", "dim": 2, "matrix_re": [[0.0, 1.0], [1.0]]}')
        assert cli.main(["eig", "--hamiltonian", str(doc), "--out", str(tmp_path)]) == 2
        assert "matrix_re" in capsys.readouterr().err

    def test_missing_document_exits_2(self, tmp_path, capsys):
        assert cli.main(["eig", "--hamiltonian", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("prefix", [b"\xff\xfe", b"\x80"])
    def test_non_utf8_document_exits_2_without_output(self, tmp_path, capsys, prefix):
        # a UTF-16 byte-order mark or a stray byte raised UnicodeDecodeError (exit 1)
        doc = tmp_path / "bad.json"
        doc.write_bytes(prefix + b'{"dim": 2}')
        out = tmp_path / "out"
        assert cli.main(["eig", "--hamiltonian", str(doc), "--out", str(out)]) == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "text", ['{"dim": 1, "matrix_re": [[1' + "0" * 400 + "]]}", "[" * 100000], ids=["huge-integer", "deep-nesting"]
    )
    def test_unreadable_document_exits_2_without_output(self, tmp_path, capsys, text):
        # an integer past float range, and deep nesting, were tracebacks (exit 1)
        doc = tmp_path / "bad.json"
        doc.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["eig", "--hamiltonian", str(doc), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestIpeaCommand:
    def test_defaults_noiseless(self, tmp_path, capsys):
        assert cli.main(["ipea", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        energy = float(out.split("energy: ")[1].split()[0])
        assert energy == pytest.approx(-1.851571, abs=1e-6)
        assert energy == pytest.approx(H2_GROUND_ENERGY, abs=1e-9)
        bits = int(out.split("correct bits vs oracle: ")[1].split()[0])
        assert bits >= 50
        header, rows = read_csv(tmp_path / "ipea_trace.csv")
        assert header[:4] == ["k", "measured_phase", "clipped_phase", "operator_power"]
        assert len(rows) == 7  # six iterations plus summary
        table = (tmp_path / "ipea_table.txt").read_text()
        assert table.count("k=") == 6
        assert "oracle" in table

    def test_jittered_run_keeps_17_bits(self, tmp_path, capsys):
        assert cli.main(
            ["ipea", "--jitter", "5deg", "--seed", "7", "--out", str(tmp_path)]
        ) == 0
        bits = int(capsys.readouterr().out.split("correct bits vs oracle: ")[1].split()[0])
        assert bits >= 17

    def test_each_prefix_estimate_is_built_once(self, tmp_path, monkeypatch):
        # the run's own final rebuild, then one rebuild per prefix, shared by
        # the trace and the bit table
        calls = []
        rebuild = ipea.reconstruct

        def counted(records, *args, **kwargs):
            calls.append(len(records))
            return rebuild(records, *args, **kwargs)

        monkeypatch.setattr(ipea, "reconstruct", counted)
        args = ["ipea", "--jitter", "5deg", "--seed", "7", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert calls == [6, 1, 2, 3, 4, 5, 6]

    def test_single_iteration_trace(self, tmp_path):
        assert cli.main(["ipea", "--iterations", "1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "ipea_trace.csv")
        assert len(rows) == 2  # one iteration plus summary
        assert rows[0][0] == "0"
        assert rows[1][0] == "final"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["ipea", "--jitter", "5deg", "--seed", "11"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "ipea_trace.csv").read_bytes() == (b / "ipea_trace.csv").read_bytes()
        assert (a / "ipea_table.txt").read_bytes() == (b / "ipea_table.txt").read_bytes()

    def test_inadmissible_errbd_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["ipea", "--errbd", "0.2", "--out", str(out)]) == 2
        assert "inadmissible" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "diagonal, tau",
        [
            # E0 = 0.01 > 0 at the automatic tau: reported -1.99 against 0.01
            ([0.01, 1.01], "auto"),
            # -E0 tau / 2 pi = 1.51 is past a whole turn: reported -1.693 against -5
            ([-5.0, -3.0, -1.0, -0.5], "1.9"),
        ],
    )
    def test_ground_phase_outside_the_window_exits_2(self, tmp_path, capsys, diagonal, tau):
        doc = tmp_path / "diag.json"
        doc.write_text(json.dumps({"label": "diag", "dim": len(diagonal), "matrix_re": np.diag(diagonal).tolist()}))
        out = tmp_path / "out"
        assert cli.main(["ipea", "--hamiltonian", str(doc), "--tau", tau, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "outside the window" in err
        assert "phase names E0" in err
        assert not out.exists()

    def test_positive_ground_energy_exits_before_the_power_chain(self, tmp_path, capsys, monkeypatch):
        calls = []
        chain = qcore.power_chain

        def counted(*args):
            calls.append(args)
            return chain(*args)

        monkeypatch.setattr(qcore, "power_chain", counted)
        doc = tmp_path / "positive.json"
        doc.write_text(json.dumps({"label": "positive", "dim": 2, "matrix_re": np.diag([0.01, 1.01]).tolist()}))
        assert cli.main(["ipea", "--hamiltonian", str(doc), "--out", str(tmp_path / "out")]) == 2
        assert "outside the window" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["ipea", "spectra", "noise-sweep"])
    def test_overflowing_tau_exits_2_without_output(self, tmp_path, capsys, command):
        # ipea exited 1 after numpy overflow warnings ("left the unitary group: ... nan")
        out = tmp_path / "o"
        assert cli.main([command, "--tau", "1.7e308", "--out", str(out)]) == 2
        assert "outside the window" in capsys.readouterr().err
        assert not out.exists()

    def test_jitter_above_the_error_bound_exits_2_without_output(self, tmp_path, capsys):
        # exited 0 with -1.40261 against -1.85157 hartree and 2 correct bits
        out = tmp_path / "o"
        args = ["ipea", "--jitter", "60deg", "--errbd", "5deg", "--seed", "3", "--out", str(out)]
        assert cli.main(args) == 2
        assert "exceeds the phase error bound" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_jitter_runs_as_zero(self, tmp_path, capsys):
        # a bound of -0.0 passes validation, so it must draw like 0.0
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ipea", "--jitter", "0", "--out", str(a)]) == 0
        assert cli.main(["ipea", "--jitter=-0deg", "--out", str(b)]) == 0
        assert (a / "ipea_trace.csv").read_bytes() == (b / "ipea_trace.csv").read_bytes()

    @pytest.mark.parametrize("command", ["ipea", "spectra"])
    @pytest.mark.parametrize("jitter", ["0", "5deg"])
    def test_negative_seed_exits_2_without_output(self, tmp_path, capsys, command, jitter):
        # exited 1 with numpy's traceback at 5deg, and 0 at jitter 0
        out = tmp_path / "o"
        assert cli.main([command, "--jitter", jitter, "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "rng seed must be >= 0, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_overlapping_reading_windows_exit_2(self, tmp_path, capsys):
        # 2^-2 >= 2 * 0.12, but the window of readings reaches the wrapped band
        args = ["ipea", "--bits", "2", "--errbd", "0.12", "--jitter", "0.12", "--seed", "4"]
        assert cli.main(args + ["--out", str(tmp_path)]) == 2
        assert "inadmissible" in capsys.readouterr().err

    def test_eight_iterations(self, tmp_path, capsys):
        assert cli.main(["ipea", "--iterations", "8", "--out", str(tmp_path)]) == 0
        bits = int(capsys.readouterr().out.split("correct bits vs oracle: ")[1].split()[0])
        assert bits >= 50

    def test_more_bits_than_float64_holds_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["ipea", "--iterations", "18", "--out", str(out)]) == 2
        assert "54 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_tau(self, tmp_path, capsys):
        assert cli.main(["ipea", "--tau", "1.0", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        energy = float(out.split("energy: ")[1].split()[0])
        assert energy == pytest.approx(H2_GROUND_ENERGY, abs=1e-6)


class TestAspCommand:
    def test_six_step_scan(self, tmp_path, capsys):
        assert cli.main(
            ["asp", "--steps", "6", "--scan", "1:30:0.5", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        best = float(out.split("fidelity = ")[1].split()[0])
        assert best >= 0.99
        _, rows = read_csv(tmp_path / "asp_scan.csv")
        assert len(rows) == 59
        assert max(float(r[1]) for r in rows) == pytest.approx(best)

    def test_dense_single_point(self, tmp_path, capsys):
        assert cli.main(
            ["asp", "--steps", "200", "--total-time", "50", "--out", str(tmp_path)]
        ) == 0
        best = float(capsys.readouterr().out.split("fidelity = ")[1].split()[0])
        assert best >= 0.999

    def test_sigma_x_target_is_stationary(self, tmp_path):
        doc = tmp_path / "sx.json"
        doc.write_text('{"label": "sx", "dim": 2, "matrix_re": [[0.0, 1.0], [1.0, 0.0]]}')
        assert cli.main(
            ["asp", "--hamiltonian", str(doc), "--steps", "4", "--scan", "1:10:1", "--out", str(tmp_path)]
        ) == 0
        _, rows = read_csv(tmp_path / "asp_scan.csv")
        assert all(float(r[1]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_requires_time_argument(self, tmp_path, capsys):
        assert cli.main(["asp", "--out", str(tmp_path)]) == 2
        assert "exactly one of --total-time and --scan" in capsys.readouterr().err

    def test_scan_and_total_time_exit_2_without_output(self, tmp_path, capsys):
        # --total-time was silently ignored next to --scan (exit 0)
        out = tmp_path / "o"
        assert cli.main(["asp", "--scan", "1:3:1", "--total-time", "5", "--out", str(out)]) == 2
        assert "exactly one of --total-time and --scan" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scan_spec(self, tmp_path):
        assert cli.main(["asp", "--scan", "30:1:0.5", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            # np.arange raised an uncaught ValueError for this grid (exit 1)
            (["--scan", "1:1e18:1e-6"], "more than 65536 points"),
            (["--scan", "1:65538:1"], "more than 65536 points"),
            (["--steps", "65537", "--total-time", "1"], "steps must lie in 1..65536"),
            (["--scan", "1:65537:1"], "more than 65536 points"),
        ],
    )
    def test_oversized_sweep_exits_2_without_output(self, tmp_path, capsys, monkeypatch, args, message):
        def no_arange(*a, **k):
            raise AssertionError("grid allocated for a rejected scan")

        monkeypatch.setattr(np, "arange", no_arange)
        out = tmp_path / "o"
        assert cli.main(["asp", *args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["asp", "--scan", "1:10:1"], "degenerate at s = 1.000000"),
            (["ipea", "--tau", "1.0"], "'id' is degenerate"),
            (["spectra", "--tau", "1.0"], "'id' is degenerate"),
        ],
    )
    def test_degenerate_input_exits_2_without_output(self, tmp_path, capsys, args, message):
        # a degenerate ground state is bad input (exit 1 as a ComputationError)
        doc = tmp_path / "id.json"
        doc.write_text('{"label": "id", "dim": 2, "matrix_re": [[1.0, 0.0], [0.0, 1.0]]}')
        out = tmp_path / "o"
        assert cli.main([*args, "--hamiltonian", str(doc), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_past_the_slice_time_limit_exits_2_without_output(self, tmp_path, capsys, monkeypatch, eigh_calls):
        # 2^16 slices x 2^16 times passed validation and would run for about 20 minutes
        def no_slice(*args):
            raise AssertionError("a slice ran")

        monkeypatch.setattr(asp, "_slice", no_slice)
        out = tmp_path / "o"
        assert cli.main(["asp", "--steps", "65536", "--scan", "1:65536:1", "--out", str(out)]) == 2
        assert "65536 slices x 65536 total times exceeds the 16777216 slice-times" in capsys.readouterr().err
        assert not out.exists()
        assert eigh_calls == []

    @pytest.mark.parametrize("t", ["5", "1e15", "1e16", "1e300"])
    def test_one_point_scan_is_the_total_time_run(self, tmp_path, t):
        # the half-step stop of 1e16:1e16:1 rounded to the start, and the
        # scan was refused as "time grid is empty"
        scan, single = tmp_path / "scan", tmp_path / "single"
        assert cli.main(["asp", "--scan", f"{t}:{t}:1", "--out", str(scan)]) == 0
        assert cli.main(["asp", "--total-time", t, "--out", str(single)]) == 0
        assert (scan / "asp_scan.csv").read_bytes() == (single / "asp_scan.csv").read_bytes()

    def test_largest_scan_runs(self, tmp_path):
        # the grid ran to stop + 1e-12, which rounds to 65536 itself: 65535 rows
        assert cli.main(["asp", "--scan", "1:65536:1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "asp_scan.csv")
        assert len(rows) == asp.MAX_POINTS
        assert float(rows[-1][0]) == 65536.0

    def test_scan_keeps_a_stop_past_2_14(self, tmp_path):
        assert cli.main(["asp", "--scan", "16380:16390:1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "asp_scan.csv")
        assert [float(r[0]) for r in rows] == list(range(16380, 16391))

    def test_scan_points_are_those_of_arange(self, tmp_path):
        # 0.1 + 2 (0.1) rounds above the stop 0.3 and still counts as the stop
        assert cli.main(["asp", "--scan", "0.1:0.3:0.1", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "asp_scan.csv")
        assert [float(r[0]) for r in rows] == list(np.arange(0.1, 0.3 + 1e-12, 0.1)) == [0.1, 0.2, 0.30000000000000004]

    @pytest.mark.parametrize(
        "scan, points",
        [
            # arange's stop, start + 1.5 step, overflowed to inf: numpy's
            # ValueError "Maximum allowed size exceeded" (exit 1)
            ("1.79e308:1.79e308:1e308", [1.79e308]),
            ("1.5e308:1.7e308:0.2e308", [1.5e308, 1.5e308 + 0.2e308]),
        ],
    )
    def test_scan_near_the_largest_float_runs(self, tmp_path, scan, points):
        assert cli.main(["asp", "--scan", scan, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "asp_scan.csv")
        assert [float(r[0]) for r in rows] == points

    @pytest.mark.parametrize(
        "args", [["--scan", "1:inf:0.5"], ["--scan", "nan:3:0.5"], ["--scan", "1:3:nan"], ["--total-time", "inf"]]
    )
    def test_non_finite_times_are_bad_input(self, tmp_path, args):
        assert cli.main(["asp", *args, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("scan", ["-1.7e308:1.7e308:1e308", "0:1:0.5", "-1:1:0.5"])
    def test_scan_start_is_checked_before_the_points_are_counted(self, tmp_path, capsys, scan):
        # the span of the first overflowed, and its 4 points were said to be
        # "more than 65536"
        out = tmp_path / "o"
        assert cli.main(["asp", f"--scan={scan}", "--out", str(out)]) == 2
        assert "time grid values must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["asp", "--steps", "6", "--scan", "2:12:2"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "asp_scan.csv").read_bytes() == (b / "asp_scan.csv").read_bytes()


class TestNoiseSweepCommand:
    def test_sweep_outputs(self, tmp_path, capsys):
        assert cli.main(
            ["noise-sweep", "--epsilons", "0,1e-5,1e-4,1e-3", "--out", str(tmp_path)]
        ) == 0
        header, rows = read_csv(tmp_path / "noise_sweep.csv")
        assert header == ["epsilon", "k", "phase_error", "growth_ratio", "attainable_bits"]
        assert len(rows) == 4 * 6
        zero_rows = [r for r in rows if float(r[0]) == 0.0]
        assert all(float(r[2]) < 1e-10 for r in zero_rows)
        ratio = next(float(r[3]) for r in rows if float(r[0]) == 1e-4 and r[3])
        assert 6.0 <= ratio <= 10.0
        bits = {float(r[0]): int(r[4]) for r in rows}
        ordered = [bits[e] for e in (0.0, 1e-5, 1e-4, 1e-3)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert ordered[0] > ordered[-1]

    def test_no_growth_ratio_without_a_coherent_error(self, tmp_path, capsys):
        # at epsilon = 0 the errors are float64 rounding, so no ratio is fitted
        assert cli.main(["noise-sweep", "--epsilons", "0,1e-4", "--out", str(tmp_path)]) == 0
        assert "epsilon = 0: growth ratio = n/a," in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "noise_sweep.csv")
        assert [r[3] for r in rows if float(r[0]) == 0.0] == [""] * 6
        assert all(r[3] for r in rows if float(r[0]) == 1e-4)

    def test_bad_epsilon_grid(self, tmp_path):
        assert cli.main(["noise-sweep", "--epsilons", "1e-4,x", "--out", str(tmp_path)]) == 2
        assert cli.main(["noise-sweep", "--epsilons=-1e-4", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("grid", ["0,1e-4,nan", "0,inf", "0,1e-4,-1e-3", ","])
    def test_bad_epsilon_fails_before_any_run(self, tmp_path, monkeypatch, grid):
        calls = []
        run = ipea.run_ipea

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(ipea, "run_ipea", counted)
        out = tmp_path / "out"
        assert cli.main(["noise-sweep", f"--epsilons={grid}", "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    def test_coherent_error_needs_a_2x2_system(self, tmp_path, capsys):
        doc = tmp_path / "diag4.json"
        doc.write_text(
            json.dumps({"label": "diag4", "dim": 4,
                        "matrix_re": np.diag([-4.0, -2.5, -1.0, -0.5]).tolist()})
        )
        out = tmp_path / "out"
        args = ["noise-sweep", "--hamiltonian", str(doc), "--tau", "1.9", "--epsilons", "0,1e-4"]
        assert cli.main(args + ["--out", str(out)]) == 2
        assert "2x2" in capsys.readouterr().err
        assert not out.exists()

    def test_coherent_error_on_a_larger_system_fails_before_any_run(self, tmp_path, monkeypatch):
        calls = []
        run = ipea.run_ipea

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(ipea, "run_ipea", counted)
        doc = tmp_path / "diag4.json"
        doc.write_text(
            json.dumps({"label": "diag4", "dim": 4,
                        "matrix_re": np.diag([-4.0, -2.5, -1.0, -0.5]).tolist()})
        )
        out = tmp_path / "out"
        args = ["noise-sweep", "--hamiltonian", str(doc), "--tau", "1.9", "--epsilons", "0,0,1e-4"]
        assert cli.main(args + ["--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["noise-sweep", "--epsilons", "0,1e-4"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "noise_sweep.csv").read_bytes() == (b / "noise_sweep.csv").read_bytes()


class TestSpectraCommand:
    def test_produces_reference_and_per_iteration_files(self, tmp_path):
        assert cli.main(["spectra", "--iterations", "6", "--out", str(tmp_path)]) == 0
        files = sorted(p.name for p in tmp_path.glob("spectrum_*.csv"))
        assert len(files) == 7  # k = -1 .. 5
        assert "spectrum_k-1.csv" in files
        manifest = json.loads((tmp_path / "spectra_manifest.json").read_text())
        assert manifest["k=-1"]["extracted_phase"] == 0.0
        assert ipea.phase_distance(manifest["k=0"]["extracted_phase"], H2_PHASE) <= 0.0003

    def test_extracted_phases_match_trace(self, tmp_path):
        assert cli.main(["spectra", "--iterations", "3", "--out", str(tmp_path)]) == 0
        assert cli.main(["ipea", "--iterations", "3", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "spectra_manifest.json").read_text())
        _, rows = read_csv(tmp_path / "ipea_trace.csv")
        for row in rows[:-1]:
            k = int(row[0])
            measured = float(row[1])
            assert ipea.phase_distance(
                manifest[f"k={k}"]["extracted_phase"], measured
            ) <= 0.0003

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["spectra", "--iterations", "2", "--jitter", "5deg", "--seed", "4"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        for name in ("spectrum_k-1.csv", "spectrum_k0.csv", "spectra_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag, read",
        [
            ("eig", "--tau", False),
            ("eig", "--seed", False),
            ("asp", "--tau", False),
            ("asp", "--seed", False),
            ("noise-sweep", "--seed", False),
            ("ipea", "--tau", True),
            ("noise-sweep", "--tau", True),
            ("spectra", "--tau", True),
            ("ipea", "--seed", True),
            ("spectra", "--seed", True),
        ],
    )
    def test_each_command_takes_only_the_flags_it_reads(self, command, flag, read, capsys):
        parser = cli.build_parser()
        argv = [command, flag, "3"]
        if read:
            assert str(getattr(parser.parse_args(argv), flag[2:])) == "3"
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


# Entries whose E*t passes the largest float: E0 = -1e10 over ASP slices of
# 1e299 / 6 and more, and E1 = 1e308 at tau = 2.
BIG = {"dim": 2, "matrix_re": [[-1e10, 0.1], [0.1, 1.0]]}
HUGE = {"dim": 2, "matrix_re": [[-1.0, 0.0], [0.0, 1e308]]}


@pytest.mark.filterwarnings("error")
class TestOverflowingPhases:
    def run(self, tmp_path, document, args):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(document))
        out = tmp_path / "o"
        code = cli.main([*args, "--hamiltonian", str(doc), "--out", str(out)])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("args", [["--total-time", "1e300"], ["--scan", "1e299:1e300:3e299"]])
    def test_asp_exits_2_without_output(self, tmp_path, capsys, args):
        # exited 0 with fidelity nan; the scan wrote one real row and three nan rows
        assert self.run(tmp_path, BIG, ["asp", *args]) == 2
        assert "E*t is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ipea", "spectra"])
    def test_estimation_exits_2_without_output(self, tmp_path, capsys, command):
        # exited 1: the power chain "left the unitary group" with nan drift
        assert self.run(tmp_path, HUGE, [command, "--tau", "2"]) == 2
        assert "E*t is not finite" in capsys.readouterr().err

    def test_noise_sweep_epsilon_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # exited 1 in the run at epsilon 1e308, after the one at 0
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(ipea, "run_ipea", no_run)
        out = tmp_path / "o"
        assert cli.main(["noise-sweep", "--epsilons", "0,1e308", "--out", str(out)]) == 2
        assert "E*t is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_sweep_perturbed_sum_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # H + eps sz overflowed with a numpy warning (exit 1); without one,
        # the message blamed the matrix's non-finite entries
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(ipea, "run_ipea", no_run)
        args = ["noise-sweep", "--epsilons", "0,1e308"]
        assert self.run(tmp_path, {"dim": 2, "matrix_re": [[1, 0.1], [0.1, -1.7e308]]}, args) == 2
        assert "passes the largest float at coherent epsilon 1e+308" in capsys.readouterr().err


# Documents whose eigenvalues, JSON tokens, spread or gap leave float range.
MAX = np.finfo(float).max
NON_FINITE_EIGENVALUE = {"dim": 4, "matrix_re": [[1e308, -1e308, 0, 0], [-1e308, MAX, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]}
NON_FINITE_EIGENVALUES = {"dim": 4, "matrix_re": [[1e308, MAX, 0, 0], [MAX, MAX, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]}
INFINITY_TOKENS = '{"dim": 2, "matrix_re": [[-1, 0], [0, 1]], "matrix_im": [[0, Infinity], [-Infinity, 0]]}'
WIDE_SPREAD = {"dim": 2, "matrix_re": [[-1, 1e308], [1e308, 1]]}
WIDE_HYPOT = {"dim": 2, "matrix_re": [[-7.5e307, 6e307], [6e307, 7.5e307]]}
WIDE_GAP = {"dim": 2, "matrix_re": [[-1e308, 0.1], [0.1, 1.7e308]]}
# eigh does not converge on it with numpy's OpenBLAS LAPACK
UNCONVERGED = {"dim": 4, "matrix_re": [[-1.8, -1.8, 1e300, -1.8], [-1.8, 1e8, -0.5, 1e16], [1e300, -0.5, -1.0, 1e8], [-1.8, 1e16, 1e8, 1e16]]}
# Hermiticity's difference passes the largest float
WIDE_ANTI_HERMITIAN = {"dim": 2, "matrix_re": [[0, 1.7e308], [-1.7e308, 0]]}


def reject_constant(token):
    raise AssertionError(f"the report holds {token}")


@pytest.mark.filterwarnings("error")
class TestNonFiniteInputs:
    def run(self, tmp_path, capsys, document, args):
        doc = tmp_path / "doc.json"
        doc.write_text(document if isinstance(document, str) else json.dumps(document))
        out = tmp_path / "o"
        code = cli.main([*args, "--hamiltonian", str(doc), "--out", str(out)])
        if code:
            assert not out.exists()
        else:
            json.loads((out / "eig_report.json").read_text(), parse_constant=reject_constant)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, args, code, cause",
        [
            # eig exited 0 and wrote Infinity; ipea blamed E*t
            (NON_FINITE_EIGENVALUE, ["eig"], 2, "eigenvalues are not all finite"),
            (NON_FINITE_EIGENVALUES, ["eig"], 2, "eigenvalues are not all finite"),
            (NON_FINITE_EIGENVALUE, ["ipea", "--tau", "1"], 2, "eigenvalues are not all finite"),
            # every command exited 1: "invalid value encountered in multiply"
            (INFINITY_TOKENS, ["eig"], 2, "Infinity is not a number"),
            (INFINITY_TOKENS, ["ipea"], 2, "Infinity is not a number"),
            (INFINITY_TOKENS, ["asp", "--total-time", "2"], 2, "Infinity is not a number"),
            (INFINITY_TOKENS, ["noise-sweep"], 2, "Infinity is not a number"),
            (INFINITY_TOKENS, ["spectra"], 2, "Infinity is not a number"),
            # choose_tau exited 1: "overflow encountered in scalar multiply", or in hypot
            (WIDE_SPREAD, ["eig"], 0, ""),
            (WIDE_SPREAD, ["ipea"], 2, "spread of '' passes the largest float"),
            (WIDE_HYPOT, ["ipea"], 2, "spread of '' passes the largest float"),
            # the gap exited 1: "overflow encountered in scalar subtract", or in subtract
            (WIDE_SPREAD, ["ipea", "--tau", "1"], 2, "gap of '' passes the largest float"),
            (WIDE_GAP, ["eig"], 0, ""),
            (WIDE_GAP, ["asp", "--total-time", "2"], 2, "gap is not finite at s = 0.8"),
            (WIDE_GAP, ["asp", "--scan", "1:2:1"], 2, "gap is not finite at s = 0.8"),
            # exited 1 on numpy's LinAlgError
            (UNCONVERGED, ["eig"], 2, "eigendecomposition failed: Eigenvalues did not converge"),
            (UNCONVERGED, ["ipea", "--tau", "1"], 2, "eigendecomposition failed: Eigenvalues did not converge"),
            # every command exited 1: "overflow encountered in subtract"
            *((WIDE_ANTI_HERMITIAN, args, 2, "not Hermitian: |A[0][1] - conj(A[1][0])| = inf") for args in (
                ["eig"], ["ipea"], ["asp", "--total-time", "2"], ["noise-sweep"], ["spectra"],
            )),
        ],
        ids=[
            "eig-inf-eigenvalue", "eig-inf-eigenvalues", "ipea-inf-eigenvalue",
            *(f"{command}-infinity-token" for command in ["eig", "ipea", "asp", "noise-sweep", "spectra"]),
            "eig-wide-spread", "ipea-wide-spread", "ipea-wide-hypot", "ipea-tau-wide-gap",
            "eig-wide-gap", "asp-wide-gap", "asp-scan-wide-gap", "eig-unconverged", "ipea-unconverged",
            *(f"{command}-wide-anti-hermitian" for command in ["eig", "ipea", "asp", "noise-sweep", "spectra"]),
        ],
    )
    def test_exit_code_and_cause(self, tmp_path, capsys, document, args, code, cause):
        got, err = self.run(tmp_path, capsys, document, args)
        assert got == code
        assert cause in err
        assert "Traceback" not in err


class TestOutDirectory:
    @pytest.mark.parametrize("command", ["eig", "ipea", "asp", "noise-sweep", "spectra"])
    @pytest.mark.parametrize("below", [False, True])
    def test_existing_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command, below):
        # a file raised FileExistsError, and a path below one NotADirectoryError,
        # only when the finished run wrote its outputs
        target = tmp_path / "taken"
        target.write_text("kept\n")
        out = target / "sub" if below else target

        def load_source(source):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "load_source", load_source)
        argv = [command, "--out", str(out)] + (["--total-time", "9.5"] if command == "asp" else [])
        assert cli.main(argv) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert target.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_new_nested_directory_is_made(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert cli.main(["eig", "--out", str(out)]) == 0
        assert (out / "eig_report.json").is_file()


class TestGeneralHamiltonianDocuments:
    def test_auto_tau_range_error_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "deep.json"
        doc.write_text(
            json.dumps({"label": "deep", "dim": 2,
                        "matrix_re": [[-10.0, 0.0], [0.0, -10.0 + np.pi]]})
        )
        assert cli.main(["ipea", "--hamiltonian", str(doc), "--out", str(tmp_path)]) == 2
        assert "outside the window" in capsys.readouterr().err

    def test_four_level_system_with_explicit_tau(self, tmp_path, capsys):
        doc = tmp_path / "diag4.json"
        diag = [-4.0, -2.5, -1.0, -0.5]
        doc.write_text(
            json.dumps({"label": "diag4", "dim": 4,
                        "matrix_re": [[diag[i] if i == j else 0.0 for j in range(4)]
                                      for i in range(4)]})
        )
        assert cli.main(
            ["ipea", "--hamiltonian", str(doc), "--tau", "1.0", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        energy = float(out.split("energy: ")[1].split()[0])
        assert energy == pytest.approx(-4.0, abs=1e-9)
