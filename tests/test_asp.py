"""Adiabatic preparation: interpolation family, split steps, sweep fidelity."""
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from molphase import asp, molham, qcore
from molphase.errors import DegeneracyError, ValidationError

from conftest import h2_like_targets


def sigma_x_target():
    return molham.MolecularHamiltonian(qcore.SIGMA_X, label="sigma_x")


def reference_sweep(target, steps, total_time):
    """Per-time loop: one ``trotter_step`` per slice, fidelities from ``np.vdot``."""
    schedule = asp.AdiabaticSchedule(steps=steps, total_time=total_time, target=target)
    state = qcore.KET_MINUS.copy()
    fidelities = []
    for s_m in schedule.s_values():
        state = asp.trotter_step(target, s_m, schedule.total_time / schedule.steps) @ state
        ground = qcore.hermitian_eig(asp.interpolated_hamiltonian(target, s_m)).ground_state
        fidelities.append(abs(np.vdot(ground, state)) ** 2)
    return state, np.array(fidelities)


class TestInterpolatedHamiltonian:
    def test_endpoints(self, h2):
        np.testing.assert_allclose(asp.interpolated_hamiltonian(h2, 0.0), qcore.SIGMA_X, atol=0)
        np.testing.assert_allclose(asp.interpolated_hamiltonian(h2, 1.0), h2.matrix, atol=0)

    def test_midpoint_elementwise_average(self, h2):
        expected = np.array([[-0.9155, 0.59065], [0.59065, -0.12685]])
        np.testing.assert_allclose(asp.interpolated_hamiltonian(h2, 0.5), expected, atol=1e-15)

    @pytest.mark.parametrize("s", [-0.1, 1.1, np.array([0.0, 0.5, 1.5]), np.array([0.5, np.nan])])
    def test_range_validation(self, h2, s):
        with pytest.raises(ValidationError):
            asp.interpolated_hamiltonian(h2, s)

    def test_stacked_equals_single(self, h2):
        s_values = np.linspace(0.0, 1.0, 7)
        stacked = asp.interpolated_hamiltonian(h2, s_values)
        assert stacked.shape == (7, 2, 2)
        for s, m in zip(s_values, stacked):
            assert np.array_equal(m, asp.interpolated_hamiltonian(h2, float(s)))


class TestTrotterStep:
    def test_endpoint_pure_sigma_x(self, h2):
        delta = 0.7
        got = asp.trotter_step(h2, 0.0, delta)
        np.testing.assert_allclose(got, qcore.expm_herm(qcore.SIGMA_X, delta), atol=1e-12)

    def test_endpoint_pure_target(self, h2):
        delta = 0.7
        got = asp.trotter_step(h2, 1.0, delta)
        np.testing.assert_allclose(got, qcore.expm_herm(h2.matrix, delta), atol=1e-12)

    def test_third_order_error_scaling(self, h2):
        # O(delta^3) per step: halving delta cuts the error by ~8
        for delta in (0.4, 0.2, 0.1):
            exact = lambda d: qcore.expm_herm(asp.interpolated_hamiltonian(h2, 0.5), d)
            err = np.abs(asp.trotter_step(h2, 0.5, delta) - exact(delta)).max()
            err_half = np.abs(asp.trotter_step(h2, 0.5, delta / 2) - exact(delta / 2)).max()
            assert 6.0 <= err / err_half <= 10.0

    def test_unitary(self, h2):
        u = asp.trotter_step(h2, 0.3, 1.7)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12

    def test_validation(self, h2):
        with pytest.raises(ValidationError):
            asp.trotter_step(h2, 0.5, 0.0)
        with pytest.raises(ValidationError):
            asp.trotter_step(h2, 1.5, 0.1)
        for delta in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                asp.trotter_step(h2, 0.5, delta)
        # a 4x4 target reached the slice kernel and raised numpy's matmul ValueError
        target = molham.MolecularHamiltonian(np.diag([-2.0, -1.0, 0.5, 1.0]), label="4x4")
        with pytest.raises(ValidationError, match="targets 2x2 systems, got dim 4"):
            asp.trotter_step(target, 0.5, 0.1)

    @pytest.mark.parametrize("s_m,delta", [(0.0, 0.7), (0.3, 1.7), (0.5, 0.1), (1.0, 2.5)])
    def test_equals_product_of_exponentials(self, h2, s_m, delta):
        # the step works in sigma_x's eigenbasis, so it matches the matrix product to a few ulps
        half = qcore.expm_herm(qcore.SIGMA_X, 0.5 * delta * (1.0 - s_m))
        middle = qcore.expm_herm(h2.matrix, s_m * delta)
        got = asp.trotter_step(h2, s_m, delta)
        assert np.abs(got - half @ middle @ half).max() <= 4 * np.finfo(float).eps


class TestRunASP:
    def test_stationary_when_target_is_sigma_x(self):
        schedule = asp.AdiabaticSchedule(steps=6, total_time=5.0, target=sigma_x_target())
        result = asp.run_asp(schedule)
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.per_step_fidelities, 1.0, atol=1e-12)

    def test_dense_long_sweep_reaches_ground_state(self, h2):
        result = asp.run_asp(asp.AdiabaticSchedule(steps=200, total_time=50.0, target=h2))
        assert result.fidelity >= 0.999

    def test_six_step_scan_reaches_high_fidelity(self, h2):
        pairs = asp.scan_total_time(h2, 6, np.arange(1.0, 30.0 + 1e-9, 0.5))
        best = max(f for _, f in pairs)
        assert best >= 0.99

    def test_result_shape_invariants(self, h2):
        schedule = asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2)
        result = asp.run_asp(schedule)
        assert len(result.per_step_fidelities) == 6
        assert np.all((0.0 <= result.per_step_fidelities) & (result.per_step_fidelities <= 1.0))
        assert result.fidelity == result.per_step_fidelities[-1]

    def test_schedule_endpoints(self, h2):
        sched = asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2)
        s = sched.s_values()
        assert s[0] == 0.0
        assert s[-1] == 1.0
        assert asp.AdiabaticSchedule(steps=1, total_time=1.0, target=h2).s_values()[0] == 1.0

    @pytest.mark.parametrize("steps,total_time", [(1, 0.3), (6, 9.5), (17, 12.3), (200, 50.0)])
    def test_total_evolution_is_unitary(self, h2, steps, total_time):
        schedule = asp.AdiabaticSchedule(steps=steps, total_time=total_time, target=h2)
        u = np.eye(2, dtype=complex)
        for s_m in schedule.s_values():
            u = asp.trotter_step(h2, s_m, schedule.total_time / schedule.steps) @ u
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-9

    def test_monotone_refinement(self, h2):
        coarse = asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=50.0, target=h2))
        fine = asp.run_asp(asp.AdiabaticSchedule(steps=200, total_time=50.0, target=h2))
        assert fine.fidelity >= coarse.fidelity - 1e-9

    def test_fidelity_invariant_under_reference_global_phase(self, h2):
        result = asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2))
        ground = molham.spectrum(h2).ground_state
        for phase in (0.0, 1.1, np.pi):
            rotated = np.exp(1j * phase) * ground
            fid = abs(np.vdot(rotated, result.final_state)) ** 2
            assert fid == pytest.approx(result.fidelity, abs=1e-12)

    def test_degenerate_path_rejected(self):
        # (1-s) sigma_x - s sigma_x closes the gap exactly at s = 1/2
        target = molham.MolecularHamiltonian(-qcore.SIGMA_X, label="minus_sx")
        schedule = asp.AdiabaticSchedule(steps=3, total_time=3.0, target=target)
        with pytest.raises(DegeneracyError, match="s = 0.5"):
            asp.run_asp(schedule)

    @pytest.mark.filterwarnings("error")
    def test_slice_phase_overflow_rejected(self):
        # E0 = -1e10 over slices of 1e300 / 6: the fidelity was nan. A total
        # time past 2^500 is refused where it enters. At 2^500 every E t is
        # finite, and the sweep refuses its phase scale, whose fidelity ran as noise.
        target = molham.MolecularHamiltonian(np.array([[-1e10, 0.1], [0.1, 1.0]]), label="big")
        with pytest.raises(ValidationError, match=r"total time must be finite with magnitude at most 2\^500, got 1e\+300"):
            asp.AdiabaticSchedule(steps=6, total_time=1e300, target=target)
        with pytest.raises(ValidationError, match=r"time grid values must be finite with magnitude at most 2\^500, got 1e\+300"):
            asp.scan_total_time(target, 6, [1.0, 1e299, 4e299, 7e299, 1e300])
        schedule = asp.AdiabaticSchedule(steps=6, total_time=qcore.MAX_MAGNITUDE, target=target)
        past_the_limit = r"max\|E\|\*T = 3\.27339e\+160 exceeds 2\^24"
        with pytest.raises(ValidationError, match=past_the_limit):
            asp.run_asp(schedule)
        with pytest.raises(ValidationError, match=past_the_limit):
            asp.scan_total_time(target, 6, [1.0, qcore.MAX_MAGNITUDE])

    @pytest.mark.filterwarnings("error")
    def test_gap_past_the_largest_float_rejected_before_any_slice(self):
        # numpy warned "overflow encountered in subtract"; without the warning
        # the sweep ran and read fidelity 0.308 at total time 2. Such a target
        # is now refused where it is built; one at the bound has a finite gap,
        # and its sweep runs at a total time within the phase-scale limit.
        with pytest.raises(ValidationError, match=r"'wide' has .* past 2\^500 in magnitude: \(-1e\+308\+0j\) at \[0\]\[0\]"):
            molham.MolecularHamiltonian(np.array([[-1e308, 0.1], [0.1, 1.7e308]]), label="wide")
        top = qcore.MAX_MAGNITUDE
        target = molham.MolecularHamiltonian(np.array([[-top, 0.1], [0.1, top]]), label="wide")
        with pytest.raises(ValidationError, match=r"max\|E\|\*T = 6\.54678e\+150 exceeds 2\^24"):
            asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=2.0, target=target))
        times = [2.0**-490, 2.0**-486]
        assert 0.0 <= asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=times[1], target=target)).fidelity <= 1.0 + 1e-12
        for _, fidelity in asp.scan_total_time(target, 6, times):
            assert 0.0 <= fidelity <= 1.0 + 1e-12

    def test_schedule_validation(self, h2):
        with pytest.raises(ValidationError):
            asp.AdiabaticSchedule(steps=0, total_time=1.0, target=h2)
        with pytest.raises(ValidationError):
            asp.AdiabaticSchedule(steps=5, total_time=0.0, target=h2)
        for total_time in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="finite"):
                asp.AdiabaticSchedule(steps=5, total_time=total_time, target=h2)
        assert asp.AdiabaticSchedule(steps=2**16, total_time=1.0, target=h2).steps == asp.MAX_POINTS
        with pytest.raises(ValidationError, match="steps must lie in 1..65536"):
            asp.AdiabaticSchedule(steps=2**16 + 1, total_time=1.0, target=h2)
        # 2.5 and 6.0 failed later with "interpolation parameter must lie in [0, 1]"
        for steps in (2.5, 6.0, True, "6"):
            with pytest.raises(ValidationError, match="steps must be an integer"):
                asp.AdiabaticSchedule(steps=steps, total_time=1.0, target=h2)
        assert asp.AdiabaticSchedule(steps=np.int64(6), total_time=1.0, target=h2).s_values().size == 6

    def test_results_own_their_arrays(self, h2):
        schedule = asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2)
        first, second = asp.run_asp(schedule), asp.run_asp(schedule)
        state, fidelities = second.final_state.copy(), second.per_step_fidelities.copy()
        first.final_state[:] = 0.0
        first.per_step_fidelities[:] = -1.0
        assert np.array_equal(second.final_state, state)
        assert np.array_equal(second.per_step_fidelities, fidelities)
        assert second.final_state.flags.owndata and second.per_step_fidelities.flags.owndata


def hexes(result):
    """``float.hex`` of every part of an ASP result's final state and fidelities."""
    parts = np.concatenate([result.final_state.view(float), result.per_step_fidelities])
    return [float(x).hex() for x in parts]


class TestPlan:
    """A sweep's plan (decompositions, gap checks, slice energies, weights)
    is made once per target and step count and shared by the sweeps after."""

    def test_run_asp_after_a_scan_equals_one_from_a_cleared_plan(self):
        # at the grid times run_asp is served from the scan's record, between
        # them it sweeps with the scan's plan; both equal a sweep from nothing kept
        grid = np.arange(1.0, 30.0 + 1e-9, 0.5)
        times = np.concatenate([grid, grid[:-1] + 0.25])
        for target in h2_like_targets(3, complex_coupling=True):
            scan = asp.scan_total_time(target, 6, grid)
            after_scan = [asp.run_asp(asp.AdiabaticSchedule(6, t, target)) for t in times]
            for t, shared in zip(times, after_scan):
                asp._plan.cache_clear()
                asp._record = None
                fresh = asp.run_asp(asp.AdiabaticSchedule(6, t, target))
                assert hexes(shared) == hexes(fresh)
            for (_, fidelity), shared in zip(scan, after_scan):
                assert float(fidelity).hex() == float(shared.fidelity).hex()

    def test_a_degenerate_target_is_refused_on_every_call(self):
        target = molham.MolecularHamiltonian(-qcore.SIGMA_X, label="minus_sx")
        asp._plan.cache_clear()
        for _ in range(3):
            with pytest.raises(DegeneracyError, match="s = 0.5"):
                asp.scan_total_time(target, 3, [1.0, 3.0])
            with pytest.raises(DegeneracyError, match="s = 0.5"):
                asp.run_asp(asp.AdiabaticSchedule(steps=3, total_time=3.0, target=target))
        assert asp._plan.cache_info().currsize == 0

    def test_the_step_count_is_part_of_the_key(self, h2):
        asp.scan_total_time(h2, 6, [9.5])
        after_scan = asp.run_asp(asp.AdiabaticSchedule(steps=7, total_time=9.5, target=h2))
        asp._plan.cache_clear()
        asp._record = None
        fresh = asp.run_asp(asp.AdiabaticSchedule(steps=7, total_time=9.5, target=h2))
        assert len(after_scan.per_step_fidelities) == 7
        assert hexes(after_scan) == hexes(fresh)

    def test_plan_arrays_are_read_only(self, h2):
        plan = asp._plan(h2.matrix.tobytes(), 6)
        for array in (plan.vx, plan.energies, plan.b, plan.b_adj, plan.weights, plan.start):
            assert not array.flags.writeable

    @pytest.mark.parametrize("steps, times", [(6, 58), (100, 2000), (2**13, 1), (3, 2**13)])
    def test_phases_are_formed_in_bounded_blocks(self, h2, monkeypatch, steps, times):
        sizes = []
        phase_factors = qcore.phase_factors

        def counted(energies, t):
            sizes.append(np.broadcast(energies, t).size)
            return phase_factors(energies, t)

        monkeypatch.setattr(qcore, "phase_factors", counted)
        asp.scan_total_time(h2, steps, np.linspace(1.0, 30.0, times))
        block = max(1, asp._BLOCK_SLICE_TIMES // times)
        assert len(sizes) == -(-steps // block)
        assert max(sizes) <= 4 * max(asp._BLOCK_SLICE_TIMES, times)


class TestRecord:
    """A scan of at most ``_BLOCK_SLICE_TIMES`` slice-times keeps every
    slice's fidelities, and the ``run_asp`` at one of its times is served
    from them, bit for bit what its own sweep gives."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The total times of every sweep the test makes."""
        calls = []
        sweep = asp._sweep

        def counted(target, steps, total_times, read):
            calls.append(total_times.tolist())
            return sweep(target, steps, total_times, read)

        monkeypatch.setattr(asp, "_sweep", counted)
        return calls

    @pytest.mark.parametrize("steps", [1, 2, 6, 37])
    @pytest.mark.parametrize("grid", [np.arange(1.0, 30.0 + 1e-9, 0.5), np.array([0.3, 0.7, 2.5, 9.5, 12.3, 50.0])])
    def test_a_served_run_equals_a_swept_one(self, sweeps, steps, grid):
        for target in h2_like_targets(2) + h2_like_targets(2, seed=7, complex_coupling=True)[1:]:
            scan = asp.scan_total_time(target, steps, grid)
            served = [asp.run_asp(asp.AdiabaticSchedule(steps, t, target)) for t in grid]
            assert sweeps == [grid.tolist()]
            asp._record = None
            swept = [asp.run_asp(asp.AdiabaticSchedule(steps, t, target)) for t in grid]
            assert sweeps[1:] == [[t] for t in grid]
            sweeps.clear()
            for (_, fidelity), a, b in zip(scan, served, swept):
                assert hexes(a) == hexes(b)
                assert float(fidelity).hex() == float(b.fidelity).hex() == float(b.per_step_fidelities[-1]).hex()

    def test_a_run_off_the_record_sweeps(self, h2, sweeps):
        grid = np.arange(1.0, 30.0 + 1e-9, 0.5)
        other = molham.MolecularHamiltonian(h2.matrix + 1e-15 * qcore.SIGMA_Z, label="H2 shifted")
        asp.scan_total_time(h2, 6, grid)
        record = asp._record
        for steps, total_time, target in [
            (6, 9.6, h2), (6, np.nextafter(9.5, 10.0), h2), (6, 0.5, h2), (6, 30.5, h2),  # off the grid
            (5, 9.5, h2), (7, 9.5, h2),  # another step count
            (6, 9.5, other),  # another target
        ]:
            result = asp.run_asp(asp.AdiabaticSchedule(steps, total_time, target))
            assert sweeps[-1] == [total_time] and len(result.per_step_fidelities) == steps
        assert asp._record is record
        assert len(sweeps) == 8

    def test_a_scan_past_the_block_records_nothing(self, h2, sweeps):
        asp._record = None
        grid = np.linspace(1.0, 30.0, asp._BLOCK_SLICE_TIMES // 6 + 1)
        asp.scan_total_time(h2, 6, grid)
        assert asp._record is None
        asp.run_asp(asp.AdiabaticSchedule(6, float(grid[7]), h2))
        assert sweeps[-1] == [grid[7]]
        asp.scan_total_time(h2, 6, grid[:-1])  # at the block exactly
        assert asp._record.fidelities.shape == (6, grid.size - 1)

    def test_a_refused_scan_leaves_the_record(self, h2):
        asp.scan_total_time(h2, 6, [9.5])
        record = asp._record
        with pytest.raises(DegeneracyError):
            asp.scan_total_time(molham.MolecularHamiltonian(-qcore.SIGMA_X, label="minus_sx"), 3, [1.0, 3.0])
        with pytest.raises(ValidationError, match=r"exceeds 2\^24"):
            asp.scan_total_time(h2, 6, [9.5, 9.1e6])
        with pytest.raises(ValidationError, match="strictly ascending"):
            asp.scan_total_time(h2, 6, [9.5, 9.5])
        assert asp._record is record

    def test_a_served_result_owns_its_arrays(self, h2):
        asp.scan_total_time(h2, 6, np.arange(1.0, 30.0 + 1e-9, 0.5))
        schedule = asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2)
        first = asp.run_asp(schedule)
        expected = hexes(first)
        first.final_state[:] = 0.0
        first.per_step_fidelities[:] = -1.0
        assert hexes(asp.run_asp(schedule)) == expected
        assert first.final_state.flags.owndata and first.per_step_fidelities.flags.owndata

    def test_the_record_is_read_only(self, h2):
        times = [1.0, 9.5]
        asp.scan_total_time(h2, 6, np.array(times))
        record = asp._record
        assert record.times == tuple(times) and record.steps == 6 and record.data == h2.matrix.tobytes()
        for array in (record.vx, record.states, record.fidelities):
            assert not array.flags.writeable

    def test_the_grid_is_kept_as_a_copy(self, h2, sweeps):
        grid = np.array([1.0, 9.5])
        asp.scan_total_time(h2, 6, grid)
        grid[1] = 9.75
        asp.run_asp(asp.AdiabaticSchedule(6, 9.75, h2))
        assert sweeps[-1] == [9.75]

    def test_threads_scanning_other_targets_are_served_their_own(self):
        # each scan replaces the record whole and run_asp reads it once, so a
        # run is served its own target's sweep or sweeps, whatever the others do
        grid = np.arange(1.0, 30.0 + 1e-9, 0.5)
        targets = h2_like_targets(3, seed=11, complex_coupling=True)
        asp._record = None
        expected = [[hexes(asp.run_asp(asp.AdiabaticSchedule(6, t, target))) for t in grid] for target in targets]
        mismatches, finished = [], []

        def work(target, wanted):
            for _ in range(5):
                asp.scan_total_time(target, 6, grid)
                got = [hexes(asp.run_asp(asp.AdiabaticSchedule(6, t, target))) for t in grid]
                mismatches.extend(i for i, (a, b) in enumerate(zip(got, wanted)) if a != b)
            finished.append(target)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=pair) for pair in zip(targets, expected)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == [] and len(finished) == len(threads)

    def test_a_schedule_keeps_its_total_time_as_a_float(self, h2):
        # a float32 time rounded its slice durations in float32: fidelity 0x1.fe4c5be301595p-1
        asp._record = None
        swept = asp.run_asp(asp.AdiabaticSchedule(6, 9.5, h2))
        assert swept.fidelity.hex() == "0x1.fe4c5be0bfc52p-1"
        asp.scan_total_time(h2, 6, [9.0, 9.5])
        for total_time in (np.float32(9.5), np.float16(9.5), np.float64(9.5), 9, np.int64(9)):
            schedule = asp.AdiabaticSchedule(6, total_time, h2)
            assert type(schedule.total_time) is float and schedule.total_time == total_time
            asp._record = None
            expected = hexes(asp.run_asp(asp.AdiabaticSchedule(6, float(total_time), h2)))
            assert hexes(asp.run_asp(schedule)) == expected
            asp.scan_total_time(h2, 6, [9.0, 9.5])
            assert hexes(asp.run_asp(schedule)) == expected
        assert hexes(asp.run_asp(asp.AdiabaticSchedule(6, np.float32(9.5), h2))) == hexes(swept)


class TestScanTotalTime:
    def test_output_length_matches_grid(self, h2):
        pairs = asp.scan_total_time(h2, 6, [1.0, 2.0, 3.0])
        assert len(pairs) == 3
        assert [t for t, _ in pairs] == [1.0, 2.0, 3.0]

    def test_single_point_dense(self, h2):
        pairs = asp.scan_total_time(h2, 200, [50.0])
        assert len(pairs) == 1
        assert pairs[0][1] >= 0.999

    def test_sigma_x_all_times(self):
        pairs = asp.scan_total_time(sigma_x_target(), 4, [0.5, 5.0, 20.0])
        assert all(f == pytest.approx(1.0, abs=1e-12) for _, f in pairs)

    def test_grid_validation(self, h2):
        with pytest.raises(ValidationError):
            asp.scan_total_time(h2, 6, [])
        with pytest.raises(ValidationError):
            asp.scan_total_time(h2, 6, [-1.0, 2.0])
        with pytest.raises(ValidationError):
            asp.scan_total_time(h2, 6, [2.0, 1.0])
        with pytest.raises(ValidationError, match="one-dimensional"):
            asp.scan_total_time(h2, 6, [[1.0, 2.0]])
        with pytest.raises(ValidationError):
            asp.scan_total_time(h2, 0, [1.0, 2.0])
        with pytest.raises(ValidationError, match="steps must be an integer, got 6.5"):
            asp.scan_total_time(h2, 6.5, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected(self, h2, bad):
        with pytest.raises(ValidationError, match="finite"):
            asp.scan_total_time(h2, 6, [1.0, bad, 3.0])

    def test_degenerate_path_rejected(self):
        target = molham.MolecularHamiltonian(-qcore.SIGMA_X, label="minus_sx")
        with pytest.raises(DegeneracyError, match="s = 0.5"):
            asp.scan_total_time(target, 3, [1.0, 3.0, 5.0])

    def test_slice_times_are_bounded_before_the_decomposition(self, h2, monkeypatch):
        def no_slice(*args):
            raise AssertionError("a slice ran")

        monkeypatch.setattr(asp, "_slice", no_slice)
        with pytest.raises(ValidationError, match="4097 slices x 4096 total times exceeds the 16777216"):
            asp.scan_total_time(h2, 4097, np.linspace(1.0, 30.0, 4096))
        # the limit itself is accepted, and the sweep reaches its first slice
        with pytest.raises(AssertionError, match="a slice ran"):
            asp.scan_total_time(h2, 2**16, np.linspace(1.0, 30.0, 256))

    def test_memory_does_not_grow_with_steps(self, h2):
        grid = np.linspace(1.0, 30.0, 2000)
        asp.scan_total_time(h2, 1, grid[:1])  # keeps the decompositions before tracing
        peaks = []
        for steps in (10, 100):
            tracemalloc.start()
            try:
                asp.scan_total_time(h2, steps, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * max(peaks)

    @pytest.mark.parametrize(
        "steps,grid",
        [
            (1, [0.3, 1.0, 9.5, 12.3, 50.0]),
            (6, [0.3, 1.0, 9.5, 12.3, 50.0]),
            (17, [0.3, 1.0, 9.5, 12.3, 50.0]),
            (200, [1.0, 50.0]),  # two times keep the 200-slice reference loop short
        ],
    )
    def test_sweep_equals_per_time_reference(self, steps, grid):
        assert_sweep_matches_reference(h2_like_targets(20), steps, grid)


def assert_sweep_matches_reference(targets, steps, grid):
    """The scan equals ``run_asp`` exactly at every time; both are within
    1e-12 of the per-time ``trotter_step`` product, which multiplies
    matrices where the sweep works elementwise in sigma_x's eigenbasis."""
    for target in targets:
        scan = asp.scan_total_time(target, steps, grid)
        for (t, fidelity), total_time in zip(scan, grid):
            state, fidelities = reference_sweep(target, steps, total_time)
            result = asp.run_asp(asp.AdiabaticSchedule(steps, total_time, target))
            assert t == total_time
            assert fidelity == result.fidelity
            assert abs(fidelity - fidelities[-1]) <= 1e-12
            assert np.abs(result.final_state - state).max() <= 1e-12
            assert np.abs(result.per_step_fidelities - fidelities).max() <= 1e-12


class TestComplexTargets:
    """Targets whose H12 carries a phase, so a conjugate dropped from the
    basis change shows (every real target is its own conjugate)."""

    @pytest.mark.parametrize(
        "steps,grid",
        [(6, [0.3, 1.0, 9.5, 12.3, 50.0]), (17, [0.3, 1.0, 9.5, 12.3, 50.0]), (200, [1.0, 50.0])],
    )
    def test_sweep_equals_per_time_reference(self, steps, grid):
        assert_sweep_matches_reference(h2_like_targets(20, complex_coupling=True), steps, grid)

    def test_step_equals_product_of_exponentials(self):
        rng = np.random.default_rng(7)
        for target in h2_like_targets(20, complex_coupling=True):
            s_m, delta = rng.uniform(0.0, 1.0), rng.uniform(0.05, 3.0)
            half = qcore.expm_herm(qcore.SIGMA_X, 0.5 * delta * (1.0 - s_m))
            middle = qcore.expm_herm(target.matrix, s_m * delta)
            got = asp.trotter_step(target, s_m, delta)
            assert np.abs(got - half @ middle @ half).max() <= 4 * np.finfo(float).eps

    def test_stacked_ground_states_equal_single_ones(self):
        # the sweep's fidelity weights come from the ground states of one
        # batched eigh; they equal those of single decompositions bit for bit
        for target in h2_like_targets(20, complex_coupling=True):
            s_values = asp.AdiabaticSchedule(steps=12, total_time=1.0, target=target).s_values()
            stacked = np.linalg.eigh(asp.interpolated_hamiltonian(target, s_values))[1][:, :, 0]
            singles = np.array(
                [qcore.hermitian_eig(asp.interpolated_hamiltonian(target, s)).ground_state for s in s_values]
            )
            assert np.array_equal(stacked, singles)
