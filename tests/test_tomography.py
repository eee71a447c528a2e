"""Tests for trace generation, sampling, and Wigner reconstruction."""

import dataclasses
import threading
import time
from unittest import mock

import numpy as np
import pytest
from conftest import assert_same_two_moments, random_physical_state
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import tomography

from cvteleport.gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    PhysicsError,
    coherent_state,
    impure_squeezed_vacuum,
    rotate,
    vacuum,
)
from cvteleport.teleporter import TeleporterParams, teleport_analytic
from cvteleport.tomography import (
    GridSpec,
    QuadratureRecord,
    WignerGrid,
    inverse_radon,
    sample_record,
    spectrum_trace,
    DEFAULT_CUTOFF_SIGMAS,
    _fold_half_turn,
    _phase_segments,
    _record_sigma_min,
    _sinogram,
    _uniform_bin_index,
    wigner_analytic,
    wigner_moments,
)

# Reconstruction closures: variances to 5% relative, means to 0.05 absolute.
VAR_RTOL = 0.05
MEAN_ATOL = 0.05

VACUUM_PEAK = 2.0 / np.pi
COHERENT_PEAK_DB = 10.0 * np.log10(1.0 + 4.0 * 3.5**2)  # 16.989700043360187


def teleported_squeezed():
    params = TeleporterParams(input_state=impure_squeezed_vacuum(-6.2, 12.0))
    return teleport_analytic(params)


def textbook_values(state, thetas, seed):
    """mu + sqrt(var) z at each theta, as plain whole-array expressions, with
    z the first thetas.size normals of default_rng(seed)."""
    c, s = np.cos(thetas), np.sin(thetas)
    mx, mp = state.mean
    cov = state.cov
    mu = mx * c + mp * s
    var = cov[0, 0] * c * c + 2.0 * cov[0, 1] * c * s + cov[1, 1] * s * s
    z = np.random.default_rng(seed).standard_normal(thetas.size)
    return mu + np.sqrt(var) * z


class TestSpectrumTrace:
    def test_vacuum_exact_trace_is_flat_zero(self):
        trace = spectrum_trace(vacuum(1))
        assert trace.averages is None
        assert np.allclose(trace.power_db, 0.0, atol=1e-12)

    def test_coherent_peak_power(self):
        trace = spectrum_trace(coherent_state(3.5 + 0j))
        assert trace.power_db.max() == pytest.approx(COHERENT_PEAK_DB, abs=1e-9)
        assert trace.thetas[np.argmax(trace.power_db)] == pytest.approx(0.0)

    def test_squeezed_trace_oscillates_between_quoted_levels(self):
        trace = spectrum_trace(impure_squeezed_vacuum(-6.2, 12.0))
        assert trace.power_db.min() == pytest.approx(-6.2, abs=1e-9)
        assert trace.power_db.max() == pytest.approx(12.0, abs=1e-9)

    def test_squeezed_trace_at_quarter_turn_matches_oracle(self):
        state = impure_squeezed_vacuum(-6.2, 12.0)
        trace = spectrum_trace(state, n_points=8)
        assert trace.thetas[1] == np.pi / 4
        variance = 0.25 * 10.0 ** (trace.power_db[1] / 10.0)
        # Oracle: rotate the state by -theta and read the x variance.
        assert variance == pytest.approx(rotate(state, 0, -np.pi / 4).cov[0, 0], rel=1e-12)
        assert variance == pytest.approx(2.011101902064135, abs=1e-9)

    def test_exact_trace_has_period_pi(self):
        trace = spectrum_trace(coherent_state(1.0 + 2.0j), n_points=240)
        half = trace.thetas.size // 2
        assert trace.thetas[half] == pytest.approx(trace.thetas[0] + np.pi)
        assert np.allclose(trace.power_db[:half], trace.power_db[half:], atol=1e-9)

    def test_sampled_trace_scatters_around_exact(self, rng):
        trace = spectrum_trace(vacuum(1), averages=3000, rng=rng)
        assert trace.averages == 3000
        assert np.abs(trace.power_db).max() < 0.6
        assert np.mean(trace.power_db) == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("averages", [1, 5])
    def test_sampled_trace_has_the_law_of_a_direct_draw(self, averages):
        # per point and over many seeds, the sampled power has the mean and
        # variance of the mean of `averages` squared quadrature draws
        tilted = rotate(impure_squeezed_vacuum(-4.0, 7.0), 0, 0.6)
        state = GaussianState([0.8, -0.3], tilted.cov)
        n_points, trials = 12, 2000
        powers = [
            10.0 ** (spectrum_trace(state, n_points, averages, np.random.default_rng(seed))
                     .power_db / 10.0)
            for seed in range(trials)
        ]
        thetas = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        c, s = np.cos(thetas), np.sin(thetas)
        mu = 0.8 * c - 0.3 * s
        sd = np.sqrt(np.einsum("in,ij,jn->n", np.array([c, s]), state.cov, np.array([c, s])))
        draws = mu + sd * np.random.default_rng(99).standard_normal((trials, averages, n_points))
        assert_same_two_moments(powers, np.mean(draws**2, axis=1) / VACUUM_VARIANCE)

    def test_accepts_teleport_report(self):
        report = teleported_squeezed()
        trace = spectrum_trace(report.output_state)
        assert trace.power_db.min() == pytest.approx(report.vx_db, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, sampled", [(1e200, False), (1e160, True)])
    def test_overflowing_power_is_a_physics_error(self, alpha, sampled, rng):
        # mean^2 overflows: the result is not finite, the arguments are fine
        state = coherent_state(alpha + 0j)
        with pytest.raises(PhysicsError, match=r"^trace power is not finite at \d+ of 240 phases$"):
            spectrum_trace(state, rng=rng if sampled else None)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            spectrum_trace(vacuum(1), n_points=1)
        with pytest.raises(ValueError):
            spectrum_trace(vacuum(1), averages=0, rng=rng)
        with pytest.raises(ValueError, match="integer"):
            spectrum_trace(vacuum(1), averages=2.5, rng=rng)
        with pytest.raises(ValueError):
            spectrum_trace(vacuum(2))


class TestSampleRecord:
    def test_vacuum_bin_variances(self, rng):
        record = sample_record(vacuum(1), 100_000, rng)
        edges = np.linspace(0.0, np.pi, 11)
        idx = np.digitize(record.thetas, edges) - 1
        for b in range(10):
            assert np.var(record.values[idx == b]) == pytest.approx(0.25, rel=0.03)

    def test_squeezed_record_variance_near_theta_zero(self, rng):
        state = impure_squeezed_vacuum(-6.0, 6.0)
        record = sample_record(state, 100_000, rng)
        # Keep the bin narrow: at 9 degrees the anti-squeezed quadrature
        # already leaks several percent into the marginal variance.
        sel = record.thetas < 0.01 * np.pi
        target = state.cov[0, 0]
        assert target == pytest.approx(0.0627971607877395, abs=1e-12)
        assert np.var(record.values[sel]) == pytest.approx(target, rel=0.15)

    def test_standardized_residuals_are_unit_variance(self, rng):
        state = impure_squeezed_vacuum(-6.0, 6.0)
        record = sample_record(state, 100_000, rng)
        c, s = np.cos(record.thetas), np.sin(record.thetas)
        var = state.cov[0, 0] * c * c + state.cov[1, 1] * s * s
        z = record.values / np.sqrt(var)
        assert np.var(z) == pytest.approx(1.0, rel=0.02)

    def test_coherent_record_mean_near_theta_zero(self, rng):
        record = sample_record(coherent_state(3.5 + 0j), 100_000, rng)
        sel = record.thetas < 0.05 * np.pi
        assert np.mean(record.values[sel]) == pytest.approx(3.5, abs=0.05)

    def test_default_schedule_sweeps_half_circle(self, rng):
        record = sample_record(vacuum(1), 1000, rng)
        assert record.n_samples == 1000
        assert record.thetas[0] == 0.0
        assert record.thetas[-1] < np.pi
        assert np.all(np.diff(record.thetas) > 0)

    def test_explicit_schedule_and_metadata(self, rng):
        thetas = np.array([0.0, 0.5, 1.0])
        record = sample_record(vacuum(1), 0, rng, thetas=thetas)
        assert record.n_samples == 3
        assert np.array_equal(record.thetas, thetas)
        # A record is its (theta, value) samples and carries no other metadata.
        assert [f.name for f in dataclasses.fields(record)] == ["thetas", "values"]

    def test_deterministic_under_seed(self):
        state = impure_squeezed_vacuum(-6.0, 7.0)
        a = sample_record(state, 5000, np.random.default_rng(42))
        b = sample_record(state, 5000, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_schedule_matches_textbook_expression(self, seed):
        # The in-place arithmetic gives the bytes of the plain expressions.
        state = random_physical_state(np.random.default_rng(seed), 1)
        n = 10_007
        record = sample_record(state, n, np.random.default_rng(seed))
        thetas = np.arange(n) * (np.pi / n)
        c, s = np.cos(thetas), np.sin(thetas)
        mx, mp = state.mean
        cov = state.cov
        mu = mx * c + mp * s
        var = cov[0, 0] * c * c + 2.0 * cov[0, 1] * c * s + cov[1, 1] * s * s
        z = np.random.default_rng(seed).standard_normal(n)
        assert record.thetas.tobytes() == thetas.tobytes()
        assert record.values.tobytes() == (mu + np.sqrt(var) * z).tobytes()

    def test_record_arrays_are_readonly(self, rng):
        record = sample_record(vacuum(1), 1000, rng)
        with pytest.raises(ValueError):
            record.values[0] = 1.0

    @pytest.mark.parametrize("n", [1, tomography._BLOCK - 1, tomography._BLOCK,
                                   tomography._BLOCK + 1, 3 * tomography._BLOCK + 7])
    def test_blocks_match_textbook_expression(self, n):
        # Sampled block by block, the record has the whole-array bytes on
        # either side of every block boundary.
        state = random_physical_state(np.random.default_rng(n), 1)
        record = sample_record(state, n, np.random.default_rng(n))
        thetas = np.arange(n) * (np.pi / n)
        assert record.thetas.tobytes() == thetas.tobytes()
        assert record.values.tobytes() == textbook_values(state, thetas, n).tobytes()

    def test_explicit_unsorted_schedule_blocks_match_textbook_expression(self, rng):
        state = random_physical_state(rng, 1)
        thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3 * tomography._BLOCK + 7)
        record = sample_record(state, 0, np.random.default_rng(7), thetas=thetas)
        assert record.thetas.tobytes() == thetas.tobytes()
        assert record.values.tobytes() == textbook_values(state, thetas, 7).tobytes()

    def test_explicit_schedule_is_neither_frozen_nor_shared(self, rng):
        thetas = rng.uniform(0.0, np.pi, 1000)
        before = thetas.copy()
        record = sample_record(vacuum(1), 0, rng, thetas=thetas)
        assert thetas.flags.writeable and thetas.tobytes() == before.tobytes()
        assert not np.shares_memory(record.thetas, thetas)
        thetas[0] = 3.0
        assert record.thetas[0] == before[0]

    @pytest.mark.parametrize("cls, field, extra", [
        (QuadratureRecord, "values", {}),
        (tomography.PhaseScanTrace, "power_db", {"averages": None}),
    ], ids=["record", "trace"])
    def test_readonly_arrays_a_caller_gives_are_copied(self, cls, field, extra):
        # The caller still owns its arrays and may make them writeable again.
        thetas, values = np.arange(2000.0) / 2000, np.ones(2000)
        thetas.setflags(write=False)
        values.setflags(write=False)
        samples = cls(thetas=thetas, **{field: values}, **extra)
        values.setflags(write=True)
        values[0] = np.nan
        stored = getattr(samples, field)
        assert stored[0] == 1.0 and not stored.flags.writeable
        assert not np.shares_memory(samples.thetas, thetas)

    @pytest.mark.parametrize("cls, field, extra", [
        (QuadratureRecord, "values", {}),
        (tomography.PhaseScanTrace, "power_db", {"averages": None}),
    ])
    def test_readonly_view_of_writeable_base_is_copied(self, cls, field, extra):
        base = np.linspace(0.0, 1.0, 10)
        view = base[:]
        view.setflags(write=False)
        samples = cls(thetas=view, **{field: view}, **extra)
        for stored in (samples.thetas, getattr(samples, field)):
            assert not stored.flags.writeable and not np.shares_memory(stored, base)
        base[0] = 5.0
        assert samples.thetas[0] == 0.0 and getattr(samples, field)[0] == 0.0


class _StubRng:
    """A default_rng(0) whose standard_normal takes ``delay`` seconds and
    raises on call ``fail_at``; it records the threads that drew."""

    def __init__(self, fail_at=None, delay=0.0):
        self._rng = np.random.default_rng(0)
        self.fail_at = fail_at
        self.delay = delay
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise FloatingPointError(f"block {self.fail_at}")
        time.sleep(self.delay)
        return self._rng.standard_normal(*args, **kwargs)


def bounded(call, timeout=30.0):
    """call() on a helper thread joined with a timeout, so a deadlock fails
    the test instead of hanging it; returns its result or raises its error."""
    outcome = {}

    def run():
        try:
            outcome["result"] = call()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    helper = threading.Thread(target=run, daemon=True)  # a deadlock must not block exit
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), f"call still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request, monkeypatch):
    """Patch the CPUs the process may use: sample_record draws inline on one
    and on a second thread on two, whatever the host has."""
    monkeypatch.setattr(tomography.os, "sched_getaffinity",
                        lambda pid: set(range(request.param)), raising=False)
    return request.param


class TestSampleRecordDrawer:
    @pytest.mark.parametrize("n", [1, tomography._BLOCK - 1, tomography._BLOCK,
                                   tomography._BLOCK + 1, 3 * tomography._BLOCK + 7])
    def test_draws_the_stream_of_one_call(self, n, cpus):
        # A caller's later draws do not move, whoever drew the blocks.
        rng, reference = np.random.default_rng(n), np.random.default_rng(n)
        sample_record(vacuum(1), n, rng)
        reference.standard_normal(n)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random() == reference.random()

    def test_one_cpu_record_has_the_threaded_bytes(self, monkeypatch):
        state = random_physical_state(np.random.default_rng(5), 1)
        n = 3 * tomography._BLOCK + 7
        records = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(tomography.os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            records.append(sample_record(state, n, np.random.default_rng(5)))
        threaded, inline = records
        assert inline.values.tobytes() == threaded.values.tobytes()
        assert inline.thetas.tobytes() == threaded.thetas.tobytes()

    def test_each_block_waits_for_its_draw(self, cpus):
        n = 3 * tomography._BLOCK + 7
        slow = sample_record(vacuum(1), n, _StubRng(delay=0.02))
        fast = sample_record(vacuum(1), n, np.random.default_rng(0))
        assert slow.values.tobytes() == fast.values.tobytes()

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_draw_error_is_raised_and_drawer_joined(self, fail_at, cpus):
        rng = _StubRng(fail_at)
        callers = []

        def call():
            callers.append(threading.current_thread())
            return sample_record(vacuum(1), 3 * tomography._BLOCK, rng)

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"block {fail_at}"):
            bounded(call)
        assert threading.active_count() == before
        # every block drawn by one thread: the caller on one CPU, a drawer on two
        assert len(rng.threads) == fail_at and len(set(rng.threads)) == 1
        assert (rng.threads[0] is callers[0]) == (cpus == 1)

    def test_marginal_error_propagates_and_drawer_joined(self, cpus):
        marginal_arrays = tomography._marginal_arrays
        calls = []

        def second_block_fails(state, thetas):
            calls.append(thetas.size)
            if len(calls) == 2:
                raise FloatingPointError("second marginals")
            return marginal_arrays(state, thetas)

        # On two CPUs the drawer is still in block 2's slow draw when block
        # 2's marginals raise: it is joined there and draws no third block.
        # On one CPU every block is drawn before the marginals.
        rng = _StubRng(delay=0.1)
        before = threading.active_count()
        with mock.patch.object(tomography, "_marginal_arrays", second_block_fails):
            with pytest.raises(FloatingPointError, match="second marginals"):
                bounded(lambda: sample_record(vacuum(1), 3 * tomography._BLOCK, rng))
        assert threading.active_count() == before
        assert len(calls) == 2
        assert len(rng.threads) == (3 if cpus == 1 else 2)


class TestWignerAnalytic:
    def test_vacuum_peak_value(self):
        grid = wigner_analytic(vacuum(1), GridSpec(-3, 3, -3, 3))
        assert grid.values.max() == pytest.approx(VACUUM_PEAK, abs=1e-12)
        center = (grid.spec.n_x // 2, grid.spec.n_p // 2)
        assert grid.values[center] == grid.values.max()

    def test_normalization_within_window(self):
        for state in (vacuum(1), impure_squeezed_vacuum(-6.2, 12.0)):
            grid = wigner_analytic(state)
            assert 0.95 <= grid.normalization() <= 1.05

    def test_displaced_grid_peaks_at_mean(self):
        grid = wigner_analytic(coherent_state(3.5 + 0j))
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.spec.x_axis()[i] == pytest.approx(3.5, abs=1e-9)
        assert grid.spec.p_axis()[j] == pytest.approx(0.0, abs=1e-9)
        assert grid.values.max() == pytest.approx(VACUUM_PEAK, abs=1e-12)

    def test_squeezed_axis_variance_ratio(self):
        grid = wigner_analytic(impure_squeezed_vacuum(-6.2, 12.0))
        moments = wigner_moments(grid)
        ratio_db = 10.0 * np.log10(moments.cov[1, 1] / moments.cov[0, 0])
        assert ratio_db == pytest.approx(18.2, abs=0.05)

    def test_everywhere_positive(self, rng):
        from conftest import random_physical_state

        for _ in range(5):
            state = random_physical_state(rng, 1)
            grid = wigner_analytic(state)
            assert np.all(grid.values > 0.0)

    def test_singular_covariance_rejected(self):
        cov = np.array([[1e-40, 0.0], [0.0, 0.25]])
        state = GaussianState(np.zeros(2), cov, validate=False)
        with pytest.raises(PhysicsError):
            wigner_analytic(state)


class TestGridSpec:
    def test_default_window(self):
        # Bounds are stored as floats; the point count defaults to 81 per axis.
        spec = GridSpec(-3, 3, -3, 3)
        assert (spec.x_min, spec.x_max) == (-3.0, 3.0)
        assert isinstance(spec.x_min, float) and isinstance(spec.p_max, float)
        assert spec.n_x == spec.n_p == 81

    def test_from_state_follows_mean_and_spread(self):
        spec = GridSpec.from_state(coherent_state(3.5 + 0j))
        assert (spec.x_min + spec.x_max) / 2 == pytest.approx(3.5)
        assert spec.x_max - spec.x_min == pytest.approx(9.0 * 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e160, 1e200])
    def test_unresolvable_window_is_a_physics_error(self, alpha):
        # mean +- 4.5 sd rounds to the mean itself
        with pytest.raises(PhysicsError, match="window cannot be resolved at the state's mean"):
            GridSpec.from_state(coherent_state(alpha + 0j))

    def test_rejects_degenerate_windows(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, -1.0, 1.0, n_x=1)
        # A point count is an integer, never truncated to one.
        for count in (2.9, 3.5, np.float64(81.5), np.inf, np.nan, True, np.True_):
            with pytest.raises(ValueError, match="^n_x must be an integer, got "):
                GridSpec(0.0, 1.0, 0.0, 1.0, n_x=count, n_p=3)
            with pytest.raises(ValueError, match="^n_p must be an integer, got "):
                GridSpec(0.0, 1.0, 0.0, 1.0, n_x=3, n_p=count)
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, n_x=np.int64(5), n_p=3.0)
        assert (spec.n_x, spec.n_p) == (5, 3) and type(spec.n_x) is type(spec.n_p) is int

    def test_grid_shape_must_match(self):
        with pytest.raises(ValueError):
            WignerGrid(GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5), np.zeros((4, 5)))


class TestInverseRadon:
    def test_vacuum_closure(self, rng):
        record = sample_record(vacuum(1), 100_000, rng)
        grid = inverse_radon(record, GridSpec.from_state(vacuum(1)))
        moments = wigner_moments(grid)
        assert moments.cov[0, 0] == pytest.approx(0.25, rel=VAR_RTOL)
        assert moments.cov[1, 1] == pytest.approx(0.25, rel=VAR_RTOL)
        assert np.abs(moments.mean).max() < MEAN_ATOL

    def test_squeezed_closure_and_axis_ratio(self, rng):
        state = impure_squeezed_vacuum(-6.2, 12.0)
        record = sample_record(state, 100_000, rng)
        grid = inverse_radon(record, GridSpec.from_state(state))
        moments = wigner_moments(grid)
        assert moments.cov[0, 0] == pytest.approx(state.cov[0, 0], rel=VAR_RTOL)
        assert moments.cov[1, 1] == pytest.approx(state.cov[1, 1], rel=VAR_RTOL)
        ratio = moments.cov[1, 1] / moments.cov[0, 0]
        assert ratio == pytest.approx(10.0**1.82, rel=0.10)

    def test_teleported_state_closure_against_report(self, rng):
        report = teleported_squeezed()
        state = report.output_state
        record = sample_record(state, 100_000, rng)
        grid = inverse_radon(record, GridSpec.from_state(state))
        moments = wigner_moments(grid)
        assert moments.cov[0, 0] == pytest.approx(report.vx, rel=VAR_RTOL)
        assert moments.cov[1, 1] == pytest.approx(report.vp, rel=VAR_RTOL)
        assert np.abs(moments.mean).max() < MEAN_ATOL

    def test_full_turn_record_folds_onto_half_circle(self, rng):
        state = coherent_state(1.0 + 0j)
        thetas = np.arange(20_000) * (2.0 * np.pi / 20_000)
        record = sample_record(state, 0, rng, thetas=thetas)
        grid = inverse_radon(record, GridSpec.from_state(state))
        moments = wigner_moments(grid)
        assert moments.mean[0] == pytest.approx(1.0, abs=MEAN_ATOL)

    def test_quarter_circle_coverage_rejected(self, rng):
        thetas = rng.uniform(0.0, 0.5 * np.pi, 5000)
        record = sample_record(vacuum(1), 0, rng, thetas=thetas)
        with pytest.raises(ValueError, match="coverage"):
            inverse_radon(record, GridSpec.from_state(vacuum(1)))

    def test_too_few_samples_rejected(self, rng):
        record = sample_record(vacuum(1), 999, rng)
        with pytest.raises(ValueError, match="samples"):
            inverse_radon(record, GridSpec.from_state(vacuum(1)))

    def test_deterministic_reconstruction(self):
        state = impure_squeezed_vacuum(-6.0, 6.0)
        spec = GridSpec.from_state(state)
        grids = [
            inverse_radon(
                sample_record(state, 20_000, np.random.default_rng(3)), spec
            )
            for _ in range(2)
        ]
        assert np.array_equal(grids[0].values, grids[1].values)

    def test_explicit_cutoff_overrides_default(self, rng):
        record = sample_record(vacuum(1), 20_000, rng)
        spec = GridSpec.from_state(vacuum(1))
        low = inverse_radon(record, spec, filter_cutoff=3.0)
        sharp = inverse_radon(record, spec)
        # A cutoff well below the state bandwidth blurs the peak down.
        assert low.values.max() < 0.85 * sharp.values.max()
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^filter_cutoff must be positive and finite$"):
                inverse_radon(record, spec, filter_cutoff=bad)
        with pytest.raises(ValueError):
            inverse_radon(record, spec, filter_cutoff=1e6)
        with pytest.raises(ValueError, match="needs inf quadrature bins .*or the grid pad$"):
            inverse_radon(record, spec, filter_cutoff=1e308)


class TestSinogramBinning:
    """Phase counts match np.digitize + clip and the sinogram matches
    np.histogram2d, sample for sample, including samples on bin edges."""

    N_THETA = 60
    N_Q = 41

    def edge_record(self, rng):
        """Thetas on phase edges, at multiples of pi, negative and wrapped;
        quadratures on every interior edge, both outer edges and beyond."""
        edges = np.linspace(0.0, np.pi, self.N_THETA + 1)
        turns = np.concatenate([np.arange(-4, 5), [1e3, 1e6, -1e6]])
        ties = (edges[None, :] + np.pi * turns[:, None]).ravel()
        multiples = np.arange(1, 5001) * np.pi
        specials = [np.pi, 2 * np.pi, -np.pi, -0.0, 0.0, np.nextafter(np.pi, 0.0),
                    np.nextafter(np.pi, 4.0), np.nextafter(0.0, -1.0), -1e-300]
        thetas = np.concatenate([
            edges, ties, multiples, -multiples, specials,
            rng.uniform(-6 * np.pi, 6 * np.pi, 20_000),
        ])
        q_edges = np.linspace(-2.5, 2.5, self.N_Q + 1)
        q_ties = np.concatenate([q_edges, [-2.6, 2.6, np.nextafter(2.5, 3.0)]])
        values = rng.normal(0.0, 1.0, thetas.size)
        values[: thetas.size // 2] = rng.choice(q_ties, thetas.size // 2)
        return thetas, values, edges, q_edges

    def test_fold_matches_floor_divide_bit_for_bit(self, rng):
        thetas, values, _, _ = self.edge_record(rng)
        turns = np.floor_divide(thetas, np.pi)
        flip = np.mod(turns.astype(np.int64), 2) == 1
        folded, q = _fold_half_turn(thetas, values)
        assert folded.tobytes() == (thetas - turns * np.pi).tobytes()
        assert q.tobytes() == np.where(flip, -values, values).tobytes()

    def test_in_range_record_is_returned_unchanged(self, rng):
        thetas = rng.uniform(1e-9, np.pi - 1e-9, 1000)
        values = rng.normal(size=1000)
        folded, q = _fold_half_turn(thetas, values)
        assert folded is thetas and q is values

    def test_index_matches_searchsorted(self, rng):
        _, values, _, q_edges = self.edge_record(rng)
        expected = np.searchsorted(q_edges, values, side="right") - 1
        expected[values == q_edges[-1]] -= 1  # the last bin is closed
        assert np.array_equal(_uniform_bin_index(values, q_edges), expected)

    def test_counts_and_sinogram_match_reference(self, rng):
        thetas, values, edges, q_edges = self.edge_record(rng)
        folded, q = _fold_half_turn(thetas, values)
        # The record must reach every convention the binning has to keep.
        assert np.any(folded == np.pi) and np.any(folded > np.pi)
        assert np.any(np.isin(folded, edges[1:-1])) and np.any(np.isin(q, q_edges[1:-1]))
        assert np.any(np.abs(q) > q_edges[-1])

        # As given the record is sorted into its segments; stably sorted by
        # phase it is its own segments.
        in_order = np.argsort(folded, kind="stable")
        for f, v in ((folded, q), (folded[in_order], q[in_order])):
            segments = _phase_segments(f, v, edges)
            idx = np.clip(np.digitize(f, edges) - 1, 0, self.N_THETA - 1)
            assert np.array_equal(np.diff(segments[2]), np.bincount(idx, minlength=self.N_THETA))
            expected, _, _ = np.histogram2d(f, v, bins=[edges, q_edges])
            assert np.array_equal(_sinogram(*segments, q_edges), expected)
        assert segments[0] is f and segments[1] is v

    @pytest.mark.parametrize(
        "theta, value",
        [
            (np.nextafter(np.pi, 4.0), 0.0),
            (np.nextafter(0.0, -1.0), 0.0),
            (1.0, -2.6),
            (1.0, np.nextafter(2.5, 3.0)),
        ],
    )
    def test_lone_outlier_is_left_out_of_sinogram(self, theta, value):
        edges = np.linspace(0.0, np.pi, self.N_THETA + 1)
        q_edges = np.linspace(-2.5, 2.5, self.N_Q + 1)
        thetas, values = np.array([0.5, theta]), np.array([0.1, value])
        sinogram = _sinogram(*_phase_segments(thetas, values, edges), q_edges)
        expected, _, _ = np.histogram2d(thetas, values, bins=[edges, q_edges])
        assert expected.sum() == 1 and np.array_equal(sinogram, expected)


def bincount_cutoff(idx, counts, values):
    """The default cutoff from each sample's bin ``idx``, summed by weighted
    bincounts, which add each bin's samples in array order."""
    eligible = counts >= max(20, int(0.5 * values.size / counts.size))
    if not np.any(eligible):
        eligible = counts >= 2
    sums = np.bincount(idx, weights=values, minlength=counts.size)[eligible]
    sqs = np.bincount(idx, weights=values * values, minlength=counts.size)[eligible]
    n = counts[eligible]
    return DEFAULT_CUTOFF_SIGMAS / np.sqrt(float(np.min(sqs / n - (sums / n) ** 2)))


class TestPhaseOrderedBinning:
    """A record is binned once, into one segment per phase bin.  Whether it
    is in phase order already or has to be sorted, the segments, the
    sinogram and the default cutoff must be what binning each sample gives."""

    N_THETA = 60
    Q_EDGES = np.linspace(-3.0, 3.0, 42)

    @staticmethod
    def ordered_record(seed):
        """Non-decreasing thetas: every edge, pi and the values either side
        of it and of 0, -0.0, long runs of equal thetas and a random sweep
        a little wider than [0, pi]; quadratures of varying spread."""
        rng = np.random.default_rng(seed)
        edges = np.linspace(0.0, np.pi, TestPhaseOrderedBinning.N_THETA + 1)
        specials = [np.pi, np.nextafter(np.pi, 0.0), np.nextafter(np.pi, 4.0),
                    -0.0, 0.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0)]
        runs = np.repeat(rng.choice(np.concatenate([edges, specials]), 8),
                         rng.integers(50, 3000, 8))
        sweep = rng.uniform(-0.01, np.pi + 0.01, int(rng.integers(2000, 20_000)))
        thetas = np.sort(np.concatenate([edges, specials, runs, sweep]))
        values = rng.normal(0.0, 1.0, thetas.size) * (1.0 + np.cos(thetas) ** 2)
        return thetas, values, edges

    def check_segments(self, thetas, values, edges, segments):
        """``segments`` of the record (thetas, values) hold each phase bin's
        samples in record order, with digitize + clip as the bins."""
        idx = np.clip(np.digitize(thetas, edges) - 1, 0, self.N_THETA - 1)
        counts = np.bincount(idx, minlength=self.N_THETA)
        in_bins = np.concatenate([np.flatnonzero(idx == b) for b in range(self.N_THETA)])
        seg_thetas, seg_values, bounds = segments
        assert bounds.dtype == np.intp and bounds[0] == 0
        assert np.array_equal(np.diff(bounds), counts)
        assert seg_thetas.tobytes() == thetas[in_bins].tobytes()
        assert seg_values.tobytes() == values[in_bins].tobytes()
        expected, _, _ = np.histogram2d(thetas, values, bins=[edges, self.Q_EDGES])
        assert np.array_equal(_sinogram(*segments, self.Q_EDGES), expected)
        cutoff = DEFAULT_CUTOFF_SIGMAS / _record_sigma_min(seg_values, bounds)
        assert cutoff == bincount_cutoff(idx, counts, values)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_binning_sample_by_sample(self, seed):
        thetas, values, edges = self.ordered_record(seed)
        assert np.all(thetas[1:] >= thetas[:-1])
        # The record reaches beyond both outer edges and the closed last edge.
        assert thetas[0] < 0.0 and thetas[-1] > np.pi and np.any(thetas == np.pi)
        with mock.patch.object(tomography, "_uniform_bin_index", side_effect=AssertionError):
            segments = _phase_segments(thetas, values, edges)
        assert segments[0] is thetas and segments[1] is values  # no copy
        self.check_segments(thetas, values, edges, segments)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unordered_record_is_binned_sample_by_sample(self, seed):
        rng = np.random.default_rng(seed)
        thetas, values, edges = self.ordered_record(seed)
        # Edges a million half turns away, and multiples of pi, some of
        # which fold to just past pi.
        multiples = np.arange(1, 200) * np.pi
        wrapped = np.concatenate([edges + 1e6 * np.pi, multiples, -multiples])
        thetas = np.concatenate([thetas, wrapped])
        values = np.concatenate([values, rng.normal(0.0, 1.0, wrapped.size)])
        # Shuffle pieces of the sorted record, keeping runs in half of them.
        pieces = np.array_split(np.arange(thetas.size), int(rng.integers(2, 200)))
        order = np.concatenate([
            rng.permutation(pieces[i]) if rng.random() < 0.5 else pieces[i]
            for i in rng.permutation(len(pieces))
        ])
        thetas, values = thetas[order], values[order]
        folded, q = _fold_half_turn(thetas, values)
        assert np.any(folded > np.pi) and np.any(np.signbit(thetas))
        for t, v in ((thetas, values), (folded, q)):
            assert not np.all(t[1:] >= t[:-1])
            self.check_segments(t, v, edges, _phase_segments(t, v, edges))


class TestWignerMoments:
    def test_vacuum_grid_moments(self):
        moments = wigner_moments(wigner_analytic(vacuum(1)))
        assert np.allclose(moments.mean, 0.0, atol=1e-12)
        assert np.allclose(moments.cov, 0.25 * np.eye(2), atol=1e-3)
        assert moments.normalization == pytest.approx(1.0, abs=0.01)

    def test_displaced_grid_moments(self):
        moments = wigner_moments(wigner_analytic(coherent_state(3.5 + 0j)))
        assert np.allclose(moments.mean, [3.5, 0.0], atol=1e-9)

    def test_undersized_window_rejected(self):
        spec = GridSpec(-0.5, 0.5, -0.5, 0.5)
        grid = wigner_analytic(vacuum(1), spec)
        with pytest.raises(PhysicsError, match="normalization"):
            wigner_moments(grid)
