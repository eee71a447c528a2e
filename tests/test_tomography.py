"""Tests for trace generation, sampling, and Wigner reconstruction."""

import copy
import math
import pickle
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from conftest import assert_same_two_moments, random_physical_state
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import gaussian, tomography

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
    DEFAULT_THETA_BINS,
    _ramp_filter,
    _record_sigma_min,
    _sinogram,
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


def textbook_values(state, thetas, seed, cos_sin=None):
    """mu + sqrt(var) z at each theta, as plain whole-array expressions, with
    z the first thetas.size normals of default_rng(seed) and ``cos_sin`` the
    thetas' cosines and sines, np.cos and np.sin unless given."""
    c, s = (np.cos(thetas), np.sin(thetas)) if cos_sin is None else cos_sin
    mx, mp = state.mean
    cov = state.cov
    mu = mx * c + mp * s
    var = cov[0, 0] * c * c + 2.0 * cov[0, 1] * c * s + cov[1, 1] * s * s
    z = np.random.default_rng(seed).standard_normal(thetas.size)
    return mu + np.sqrt(var) * z


def sweep_cos_sin(thetas):
    """The default sweep's cosines and sines by angle addition, as whole-array
    expressions: sample k = a + j, j < _BLOCK, of the block starting at a has
    theta_a + theta_j, so cos_a cos_j - sin_a sin_j and sin_a cos_j + cos_a sin_j."""
    j = np.arange(thetas.size) % tomography._BLOCK
    a = np.arange(thetas.size) - j
    cos_a, sin_a = np.cos(thetas[a]), np.sin(thetas[a])
    cos_j, sin_j = np.cos(thetas[j]), np.sin(thetas[j])
    return cos_a * cos_j - sin_a * sin_j, sin_a * cos_j + cos_a * sin_j


def segments_of(thetas, values, edges):
    """A record's phase segments as binning each sample gives them: bins by
    np.digitize, clipped into the n bins, each bin's samples in record order,
    and the n + 1 bounds of the bins' segments."""
    n = edges.size - 1
    idx = np.clip(np.digitize(thetas, edges) - 1, 0, n - 1)
    order = np.argsort(idx, kind="stable")
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(idx, minlength=n), out=bounds[1:])
    return thetas[order], values[order], bounds


def assert_same_segments(segments, expected):
    for got, want in zip(segments, expected, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

    @pytest.mark.filterwarnings("error")
    def test_power_left_non_positive_by_round_off_is_a_physics_error(self):
        # at 1000 dB the squeezed variance cancels to <= 0 at theta = pi/2
        state = rotate(impure_squeezed_vacuum(-1000.0, 1000.0), 0, np.pi / 2)
        with pytest.raises(PhysicsError, match=r"^trace power is not positive at 1 of 4 phases$"):
            spectrum_trace(state, n_points=4)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            spectrum_trace(vacuum(1), n_points=1)
        with pytest.raises(ValueError):
            spectrum_trace(vacuum(1), averages=0, rng=rng)
        with pytest.raises(ValueError, match="integer"):
            spectrum_trace(vacuum(1), averages=2.5, rng=rng)
        with pytest.raises(ValueError):
            spectrum_trace(vacuum(2))

    def test_rejects_non_integral_counts(self, rng):
        # 3.0, True, the minimum and the other classes are rows of
        # test_gaussian's boundary table
        with pytest.raises(ValueError, match="^n_points must be an integer, got 2.5$"):
            spectrum_trace(vacuum(1), n_points=2.5)
        with pytest.raises(ValueError, match="^averages must be an integer, got 2.5$"):
            spectrum_trace(vacuum(1), averages=2.5, rng=rng)
        assert spectrum_trace(vacuum(1), np.int64(4), np.int64(2), rng).averages == 2


# A record built from a caller's thetas and values, and the field they go to.
BUILT_FROM_ARRAYS = {
    "record": (lambda thetas, values: QuadratureRecord(values), "values"),
    "trace": (lambda thetas, values: tomography.PhaseScanTrace(thetas, values, None), "power_db"),
}


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

    def test_record_carries_only_its_samples(self, rng):
        record = sample_record(vacuum(1), 3, rng)
        assert record.n_samples == 3
        # A record is its values on the sweep and carries no other metadata.
        assert record._fields == ("values",)

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
        # either side of every block boundary, with the default sweep's
        # cosines and sines by angle addition.
        state = random_physical_state(np.random.default_rng(n), 1)
        record = sample_record(state, n, np.random.default_rng(n))
        thetas = np.arange(n) * (np.pi / n)
        expected = textbook_values(state, thetas, n, sweep_cos_sin(thetas))
        assert record.thetas.tobytes() == thetas.tobytes()
        assert record.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [tomography._BLOCK + 1, 3 * tomography._BLOCK + 7, 10**6])
    def test_default_sweep_is_within_ulps_of_np_cos(self, n):
        # Angle addition moved a record by at most 2.09 ulps of its largest
        # |value| (measured over 110 records of 32,769 to 1M samples); no
        # error is carried across blocks, so a long record is no worse.
        state = random_physical_state(np.random.default_rng(n), 1)
        record = sample_record(state, n, np.random.default_rng(n))
        textbook = textbook_values(state, record.thetas, n)
        bound = 2.5 * np.finfo(float).eps * np.abs(textbook).max()
        assert np.abs(record.values - textbook).max() <= bound
        # a sample at each block start has the np.cos/np.sin bytes
        starts = slice(0, n, tomography._BLOCK)
        assert record.values[starts].tobytes() == textbook[starts].tobytes()

    @pytest.mark.parametrize("make, field", BUILT_FROM_ARRAYS.values(),
                             ids=BUILT_FROM_ARRAYS.keys())
    def test_readonly_arrays_a_caller_gives_are_copied(self, make, field):
        # The caller still owns its arrays and may make them writeable again.
        thetas, values = np.arange(2000.0) / 2000, np.ones(2000)
        thetas.setflags(write=False)
        values.setflags(write=False)
        samples = make(thetas, values)
        values.setflags(write=True)
        values[0] = np.nan
        stored = getattr(samples, field)
        assert stored[0] == 1.0 and not stored.flags.writeable
        assert not np.shares_memory(samples.thetas, thetas)

    @pytest.mark.parametrize("make, field", BUILT_FROM_ARRAYS.values(),
                             ids=BUILT_FROM_ARRAYS.keys())
    def test_readonly_view_of_writeable_base_is_copied(self, make, field):
        base = np.linspace(0.0, 1.0, 10)
        view = base[:]
        view.setflags(write=False)
        samples = make(view, view)
        for stored in (samples.thetas, getattr(samples, field)):
            assert not stored.flags.writeable and not np.shares_memory(stored, base)
        base[0] = 5.0
        assert samples.thetas[0] == 0.0 and getattr(samples, field)[0] == 0.0


_SWEEP_SIZES = [1000, 1001, tomography._BLOCK - 1, tomography._BLOCK, tomography._BLOCK + 1,
                99_991, 1_000_000, 2**22 + 3]


class TestQuadratureRecord:
    """A record holds its values only: its thetas are the standard sweep,
    built on each read, and its phase segments come from the sweep's step
    in closed form."""

    @pytest.mark.parametrize("n", _SWEEP_SIZES)
    def test_segments_are_those_of_searchsorted(self, n):
        record = QuadratureRecord(np.zeros(n))
        thetas = np.arange(n, dtype=float) * (np.pi / n)
        edges = np.linspace(0.0, np.pi, DEFAULT_THETA_BINS + 1)
        bounds = record._bounds(edges)
        assert bounds.tobytes() == np.searchsorted(thetas, edges).tobytes()
        # at MIN_RECORD_SAMPLES or more, every phase bin holds 16 or more
        assert np.diff(bounds).min() >= 16
        # edges on a sample, a float either side of it, and outside the sweep
        at = thetas[[0, 1, n // 3, n // 2, n - 2, n - 1]]
        hard = np.sort(np.concatenate([
            at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf), [-1.0, -0.0, np.pi, 4.0],
        ]))
        assert record._bounds(hard).tobytes() == np.searchsorted(thetas, hard).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 59, 60, 61, 999])
    def test_short_record_segments_are_those_of_searchsorted(self, n):
        # Below MIN_RECORD_SAMPLES, and with fewer samples than phase bins,
        # the closed form still gives searchsorted's bounds, empty bins too.
        record = QuadratureRecord(np.zeros(n))
        thetas = np.arange(n, dtype=float) * (np.pi / max(n, 1))
        edges = np.linspace(0.0, np.pi, DEFAULT_THETA_BINS + 1)
        hard = np.sort(np.concatenate([
            edges, thetas, np.nextafter(thetas, -np.inf), np.nextafter(thetas, np.inf),
            [-1.0, -0.0, np.pi, 4.0],
        ]))
        for probe in (edges, hard):
            assert record._bounds(probe).tobytes() == np.searchsorted(thetas, probe).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2] + _SWEEP_SIZES)
    def test_thetas_are_the_sweep(self, n):
        record = QuadratureRecord(np.zeros(n))
        thetas = record.thetas
        assert thetas.tobytes() == (np.arange(n) * (np.pi / n if n else 1.0)).tobytes()
        assert thetas.dtype == np.float64 and not thetas.flags.writeable
        assert np.all(thetas >= 0.0) and np.all(thetas < np.pi)
        assert np.all(np.diff(thetas) > 0.0)
        assert record.n_samples == n

    @pytest.mark.parametrize("values, message", [
        (np.zeros((40, 50)), "^values must be a 1-D array$"),
        (np.float64(0.5), "^values must be a 1-D array$"),
        (np.append(np.zeros(1999), np.nan), "^record values must be finite$"),
        (np.concatenate([[np.inf], np.zeros(1999)]), "^record values must be finite$"),
        ([0.0, -np.inf, 1.0], "^record values must be finite$"),
    ], ids=["2d", "scalar", "nan", "inf", "minus_inf_list"])
    def test_constructor_rejects_values_that_are_not_a_record(self, values, message):
        with pytest.raises(ValueError, match=message):
            QuadratureRecord(values)

    def test_constructor_holds_float_values(self):
        record = QuadratureRecord([1, 2, 3])
        assert record.values.dtype == np.float64 and not record.values.flags.writeable
        assert record.values.tolist() == [1.0, 2.0, 3.0]

    def test_sample_record_hands_over_its_values(self, rng):
        # sample_record builds the record without the constructor's copy
        # and finiteness scan: it made and checked the values itself.
        with mock.patch.object(QuadratureRecord, "__init__", side_effect=AssertionError):
            record = sample_record(vacuum(1), 5000, rng)
        assert not record.values.flags.writeable

    def test_peak_memory_is_the_values_and_a_few_blocks(self):
        # the values (8 MB), the cos/sin table and three block buffers: about
        # 8.9 MiB; a record that holds its thetas needs 8 MB more
        state = impure_squeezed_vacuum(-3.0, 6.0)
        sample_record(state, 1000, np.random.default_rng(0))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            record = sample_record(state, 1_000_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert record.n_samples == 1_000_000
        assert peak < 9 * 2**20


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("make, message", [
    (lambda: tomography.PhaseScanTrace(np.zeros(3), np.zeros(4), None),
     "thetas and power_db must be matching 1-D arrays"),
    (lambda: tomography.PhaseScanTrace(np.zeros((2, 2)), np.zeros((2, 2)), None),
     "thetas and power_db must be matching 1-D arrays"),
    (lambda: tomography.PhaseScanTrace([0.0, np.inf, 1.0], np.zeros(3), None),
     "trace values must be finite"),
    (lambda: tomography.PhaseScanTrace(np.zeros(3), [0.0, np.nan, 0.0], None),
     "trace values must be finite"),
    (lambda: WignerGrid(GridSpec(-1, 1, -1, 1, 3, 3), np.full((3, 3), np.nan)),
     "grid values must be finite"),
], ids=["trace-lengths", "trace-2d", "trace-inf-theta", "trace-nan-power", "grid-nan"])
def test_record_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# Each frozen record with arrays, and the names of its arrays.
FROZEN_RECORDS = {
    "record": (lambda: sample_record(vacuum(1), 2000, np.random.default_rng(0)),
               ["values", "thetas"]),
    "trace": (lambda: spectrum_trace(coherent_state(0.5 + 1j), 16), ["thetas", "power_db"]),
    "grid": (lambda: wigner_analytic(vacuum(1), GridSpec(-2, 2, -2, 2, 5, 7)), ["values"]),
}


class TestFrozenRecordCopies:
    """Copies and pickles of the frozen records keep their arrays read-only."""

    @pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
    @pytest.mark.parametrize("make, names", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS.keys())
    def test_record_copies_hold_readonly_arrays(self, make, names, copier):
        original = make()
        copied = copier(original)
        assert type(copied) is type(original)
        for name in names:
            array = getattr(copied, name)
            assert not array.flags.writeable
            assert array.tobytes() == getattr(original, name).tobytes()
        others = [name for name in original._fields if name not in names]
        assert [getattr(copied, name) for name in others] == [
            getattr(original, name) for name in others]

    @pytest.mark.parametrize("make, names", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS.keys())
    def test_equality_is_identity(self, make, names):
        # A record of arrays compares by identity, as a GaussianState does,
        # not by numpy's elementwise ==, whose truth value is ambiguous.
        record = make()
        assert (record == record) is True
        assert (record == copy.copy(record)) is False

    @pytest.mark.parametrize("make, names", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS.keys())
    def test_hash_is_identity(self, make, names):
        # With == by identity, a record hashes by identity too, so it can key
        # a dict or sit in a set; a hash of its array fields would raise.
        record = make()
        twin = copy.copy(record)
        assert hash(record) == object.__hash__(record)
        assert {record: 1, twin: 2}[record] == 1 and len({record, twin, record}) == 2


class _StubRng:
    """A default_rng(0) whose standard_normal raises on call ``fail_at`` and,
    for ``nan_at`` = (call, index), writes NaN at that index of that call's
    normals; it records the threads that drew and the sizes they drew."""

    def __init__(self, fail_at=None, nan_at=(None, None)):
        self._rng = np.random.default_rng(0)
        self.fail_at = fail_at
        self.nan_at = nan_at
        self.threads = []
        self.sizes = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        if len(self.threads) == self.fail_at:
            raise FloatingPointError(f"block {self.fail_at}")
        z = self._rng.standard_normal(*args, **kwargs)
        self.sizes.append(z.size)
        call, index = self.nan_at
        if len(self.threads) == call:
            z[index] = np.nan
        return z


class TestSampleRecordDraw:
    @pytest.mark.parametrize("n", [1, tomography._BLOCK - 1, tomography._BLOCK,
                                   tomography._BLOCK + 1, 3 * tomography._BLOCK + 7])
    def test_draws_the_stream_of_one_call(self, n):
        # A caller's later draws do not move, however many blocks were drawn.
        rng, reference = np.random.default_rng(n), np.random.default_rng(n)
        sample_record(vacuum(1), n, rng)
        reference.standard_normal(n)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("caller", ["test_thread", "worker_thread"])
    @pytest.mark.parametrize("n", [1, tomography._BLOCK - 1, tomography._BLOCK,
                                   tomography._BLOCK + 1, 3 * tomography._BLOCK + 7])
    def test_draws_each_block_once_on_the_calling_thread(self, n, caller):
        # One standard_normal call per block, of that block's size, on
        # whichever thread called; the bytes are those of default_rng(0).
        state = random_physical_state(np.random.default_rng(n), 1)
        rng = _StubRng()

        def draw():
            return sample_record(state, n, rng), threading.current_thread()

        if caller == "test_thread":
            record, thread = draw()
        else:
            with ThreadPoolExecutor(max_workers=1) as pool:
                record, thread = pool.submit(draw).result(timeout=60)
            assert thread is not threading.current_thread()
        block = tomography._BLOCK
        assert rng.threads == [thread] * math.ceil(n / block)
        assert rng.sizes == [min(block, n - a) for a in range(0, n, block)]
        expected = sample_record(state, n, np.random.default_rng(0))
        assert record.values.tobytes() == expected.values.tobytes()
        assert record.thetas.tobytes() == expected.thetas.tobytes()

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_draw_error_is_raised(self, fail_at):
        rng = _StubRng(fail_at)
        with pytest.raises(FloatingPointError, match=f"block {fail_at}"):
            sample_record(vacuum(1), 3 * tomography._BLOCK, rng)
        # every block drawn by the caller's thread, up to the failing one
        assert rng.threads == [threading.current_thread()] * fail_at

    def test_marginal_error_propagates(self):
        marginal_arrays = tomography._marginal_arrays
        calls = []

        def second_block_fails(state, c, s, var, term):
            calls.append(c.size)
            if len(calls) == 2:
                raise FloatingPointError("second marginals")
            return marginal_arrays(state, c, s, var, term)

        # Each block is drawn after its marginals: block 2's raise before its draw.
        rng = _StubRng()
        with mock.patch.object(tomography, "_marginal_arrays", second_block_fails):
            with pytest.raises(FloatingPointError, match="second marginals"):
                sample_record(vacuum(1), 3 * tomography._BLOCK, rng)
        assert len(calls) == 2
        assert len(rng.threads) == 1

    # A NaN normal in the first, second or last block; or finite normals and
    # a marginal mean that overflows.
    @pytest.mark.parametrize("state, nan_at", [
        (vacuum(1), (1, 0)),
        (vacuum(1), (2, 5)),
        (vacuum(1), (3, -1)),
        (GaussianState([1.5e308, 1.5e308], 0.25 * np.eye(2)), (None, None)),
    ], ids=["nan_first", "nan_second_block", "nan_last", "overflow"])
    def test_non_finite_value_is_rejected_after_every_block_is_drawn(self, state, nan_at):
        rng = _StubRng(nan_at=nan_at)
        with pytest.raises(ValueError, match="^record values must be finite$"):
            sample_record(state, 3 * tomography._BLOCK, rng)
        assert len(rng.threads) == 3  # raised once every block was drawn


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
        state = gaussian._own([0.0, 0.0], [[1e-40, 0.0], [0.0, 0.25]])
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
        for count in (2.9, 3.0, 3.5, np.float64(81.5), np.inf, np.nan, True, np.True_):
            with pytest.raises(ValueError, match="^n_x must be an integer, got "):
                GridSpec(0.0, 1.0, 0.0, 1.0, n_x=count, n_p=3)
            with pytest.raises(ValueError, match="^n_p must be an integer, got "):
                GridSpec(0.0, 1.0, 0.0, 1.0, n_x=3, n_p=count)
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, n_x=np.int64(5), n_p=3)
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
    """Phase counts match np.digitize + clip of the record and the sinogram
    matches its np.histogram2d, sample for sample, including samples on bin
    edges."""

    N_THETA = 60
    N_Q = 41

    def edge_record(self, rng):
        """Thetas in phase order within [0, pi): on every phase edge below pi,
        in runs of ties, -0.0 and +0.0, and just either side of 0 and below
        pi; quadratures on every interior edge, both outer edges and beyond."""
        edges = np.linspace(0.0, np.pi, self.N_THETA + 1)
        ties = np.repeat(edges[:-1], rng.integers(1, 50, self.N_THETA))
        specials = [-0.0, 0.0, np.nextafter(0.0, 1.0), np.nextafter(np.pi, 0.0)]
        thetas = np.sort(np.concatenate([ties, specials, rng.uniform(0.0, np.pi, 20_000)]))
        q_edges = np.linspace(-2.5, 2.5, self.N_Q + 1)
        q_ties = np.concatenate([q_edges, [-2.6, 2.6, np.nextafter(2.5, 3.0)]])
        values = rng.normal(0.0, 1.0, thetas.size)
        values[: thetas.size // 2] = rng.choice(q_ties, thetas.size // 2)
        return thetas, values, edges, q_edges

    def test_counts_and_sinogram_match_reference(self, rng):
        thetas, q, edges, q_edges = self.edge_record(rng)
        # The samples must reach every convention the binning has to keep.
        assert np.any(np.isin(thetas, edges[1:-1])) and np.any(np.isin(q, q_edges[1:-1]))
        assert np.any(np.abs(q) > q_edges[-1])
        bounds = np.searchsorted(thetas, edges)
        idx = np.clip(np.digitize(thetas, edges) - 1, 0, self.N_THETA - 1)
        assert np.array_equal(np.diff(bounds), np.bincount(idx, minlength=self.N_THETA))
        expected, _, _ = np.histogram2d(thetas, q, bins=[edges, q_edges])
        assert np.array_equal(_sinogram(q, bounds, q_edges), expected)

    def test_inverse_radon_bins_the_record_it_is_given(self, rng):
        # Each phase bin is the segment of the record's own values that
        # inverse_radon hands the sinogram, as searchsorted bounds it.
        record = QuadratureRecord(self.edge_record(rng)[1])
        seen = []

        def spy(q, bounds, q_edges):
            seen.append((q, bounds, q_edges))
            return _sinogram(q, bounds, q_edges)

        with mock.patch.object(tomography, "_sinogram", spy):
            inverse_radon(record, GridSpec.from_state(vacuum(1)))
        ((given, bounds, q_edges),) = seen
        assert given is record.values
        edges = np.linspace(0.0, np.pi, self.N_THETA + 1)
        assert np.array_equal(bounds, np.searchsorted(record.thetas, edges))
        expected, _, _ = np.histogram2d(record.thetas, given, bins=[edges, q_edges])
        assert np.array_equal(_sinogram(given, bounds, q_edges), expected)

    @pytest.mark.parametrize(
        "theta, value",
        [
            (1.0, -2.6),
            (1.0, np.nextafter(2.5, 3.0)),
        ],
    )
    def test_lone_outlier_is_left_out_of_sinogram(self, theta, value):
        edges = np.linspace(0.0, np.pi, self.N_THETA + 1)
        q_edges = np.linspace(-2.5, 2.5, self.N_Q + 1)
        thetas, values = np.array([0.5, theta]), np.array([0.1, value])
        sinogram = _sinogram(values, np.searchsorted(thetas, edges), q_edges)
        expected, _, _ = np.histogram2d(thetas, values, bins=[edges, q_edges])
        assert expected.sum() == 1 and np.array_equal(sinogram, expected)


def reduceat_cutoff(idx, counts, values):
    """The default cutoff from each sample's bin ``idx``: the samples, bin by
    bin and in record order within a bin, summed by one np.add.reduceat over
    the starts of the bins, every bin holding a sample."""
    binned = values[np.argsort(idx, kind="stable")]
    starts = np.cumsum(counts) - counts
    sums = np.add.reduceat(binned, starts)
    sqs = np.add.reduceat(binned * binned, starts)
    return DEFAULT_CUTOFF_SIGMAS / np.sqrt(float(np.min(sqs / counts - (sums / counts) ** 2)))


def fsum_sigma_min(q, bounds):
    """_record_sigma_min's statistic, over every bin, with every sum exactly
    rounded by math.fsum, one segment at a time."""
    variances = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        mean = math.fsum(q[a:b].tolist()) / (b - a)
        variances.append(math.fsum((q[a:b] * q[a:b]).tolist()) / (b - a) - mean * mean)
    return math.sqrt(min(variances))


def complex_fft_filter(profiles, dq, cutoff):
    """The ramp filter by complex FFTs of explicitly zero-padded profiles."""
    n_q = profiles.shape[1]
    n_pad = 1 << int(np.ceil(np.log2(n_q * 8)))
    k = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=dq)
    ramp = np.pi * np.abs(k) * (np.abs(k) <= cutoff)
    padded = np.zeros((profiles.shape[0], n_pad))
    padded[:, :n_q] = profiles
    return np.real(np.fft.ifft(np.fft.fft(padded, axis=1) * ramp, axis=1))[:, :n_q]


class TestFilterAndCutoffAccuracy:
    """The real-FFT filter and the pairwise sums are a few ulps from their
    textbook forms."""

    @pytest.mark.parametrize("n_q, cutoff_per_nyquist", [
        (41, 0.2), (171, 0.5), (251, 1.0), (1001, 0.05), (3, 2.0),
    ])
    def test_ramp_filter_matches_complex_fft(self, rng, n_q, cutoff_per_nyquist):
        # Histogram-like profiles: counts of different scales in each row.
        profiles = rng.poisson(rng.uniform(0.0, 500.0, (60, n_q))) / rng.uniform(1.0, 1e3, (60, 1))
        dq = 0.037
        cutoff = cutoff_per_nyquist * np.pi / dq
        expected = complex_fft_filter(profiles, dq, cutoff)
        filtered = _ramp_filter(profiles, dq, cutoff)
        assert filtered.shape == expected.shape
        assert np.abs(filtered - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n, state", [
        (10**6, teleported_squeezed().output_state),
        (200_000, coherent_state(1.5 + 0.5j)),
        (50_000, impure_squeezed_vacuum(-6.0, 6.0)),
        (1000, vacuum(1)),  # 16-17 samples a bin
        (1170, vacuum(1)),  # 19-20 samples a bin
    ], ids=["teleported-1M", "coherent", "squeezed", "vacuum-1000", "vacuum-1170"])
    def test_sigma_min_matches_fsum(self, n, state):
        record = sample_record(state, n, np.random.default_rng(n))
        q, bounds = record.values, np.searchsorted(record.thetas, np.linspace(0.0, np.pi, 61))
        expected = fsum_sigma_min(q, bounds)
        assert _record_sigma_min(q, bounds) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n, sigma_min", [
        (1000, "0x1.72b54fbdf7a51p-2"),
        (1140, "0x1.4a31a29cc1d25p-2"),
        (1201, "0x1.9221851bc2ca4p-2"),
        (5000, "0x1.a3c3b75f6155bp-2"),
        (10**6, "0x1.b8a3ead4111e0p-2"),
    ])
    def test_sigma_min_bytes_of_the_teleported_output(self, n, sigma_min):
        # byte for byte, at sizes away from 1141-1200, whose bins hold 19 to
        # 21 samples
        record = sample_record(teleported_squeezed().output_state, n, np.random.default_rng(n))
        bounds = record._bounds(np.linspace(0.0, np.pi, DEFAULT_THETA_BINS + 1))
        assert float(_record_sigma_min(record.values, bounds)).hex() == sigma_min

    def test_zero_variance_phase_bin_is_physics_error(self, rng):
        values = rng.normal(0.0, 0.5, 2000)
        values[:40] = 0.5  # the first phase bin's 34 samples are equal
        record = QuadratureRecord(values)
        with pytest.raises(PhysicsError, match="^record has a zero-variance phase bin$"):
            inverse_radon(record, GridSpec.from_state(vacuum(1)))


class TestPhaseOrderedBinning:
    """A record is binned once, into one segment per phase bin, which
    searchsorted bounds; the segments, the sinogram and the default cutoff
    must be what binning each sample gives."""

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_binning_sample_by_sample(self, seed):
        thetas, values, edges = self.ordered_record(seed)
        # Its part in [0, pi), -0.0 made +0.0: a run of +0.0 first, edges and
        # runs of ties within, and nextafter(pi, 0) last.
        keep = (thetas >= 0.0) & (thetas < np.pi)
        thetas, values = np.abs(thetas[keep]), values[keep]
        assert thetas[0] == 0.0 and not np.any(np.signbit(thetas))
        assert thetas[-1] == np.nextafter(np.pi, 0.0)
        bounds = np.searchsorted(thetas, edges)
        # each phase bin's samples in record order, with digitize + clip as the bins
        assert_same_segments((thetas, values, bounds), segments_of(thetas, values, edges))
        expected, _, _ = np.histogram2d(thetas, values, bins=[edges, self.Q_EDGES])
        assert np.array_equal(_sinogram(values, bounds, self.Q_EDGES), expected)
        idx = np.clip(np.digitize(thetas, edges) - 1, 0, self.N_THETA - 1)
        cutoff = DEFAULT_CUTOFF_SIGMAS / _record_sigma_min(values, bounds)
        assert cutoff == reduceat_cutoff(idx, np.diff(bounds), values)


class TestTruncatedBinning:
    """The sinogram bins by truncation and compares with the edges only the
    samples near one; its counts must still be np.histogram2d's, on windows
    shaped like inverse_radon's, for samples on every edge, one ulp either
    side of each edge and beyond both outer edges."""

    @staticmethod
    def edge_samples(q_edges, rng):
        """Every edge, its neighbours one ulp away, values beyond both outer
        edges and a spread within, shuffled; all finite."""
        with np.errstate(over="ignore"):  # past the largest float: inf, dropped below
            near = [q_edges, np.nextafter(q_edges, -np.inf), np.nextafter(q_edges, np.inf)]
            beyond = [1.5 * q_edges[[0, -1]], [-np.finfo(float).max, np.finfo(float).max]]
        inner = q_edges[-1] * rng.uniform(-1.0, 1.0, 2000)  # the window is [-support, support]
        values = np.concatenate(near + beyond + [inner])
        values = values[np.isfinite(values)]
        return values[rng.permutation(values.size)]

    def assert_matches_histogram2d(self, q_edges, seed):
        rng = np.random.default_rng(seed)
        values = self.edge_samples(q_edges, rng)
        thetas = np.sort(rng.uniform(0.0, np.pi, values.size))
        edges = np.linspace(0.0, np.pi, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sinogram = _sinogram(values, np.searchsorted(thetas, edges), q_edges)
            expected, _, _ = np.histogram2d(thetas, values, bins=[edges, q_edges])
        assert np.array_equal(sinogram, expected)

    @settings(max_examples=40, deadline=None)
    @given(support=st.floats(1e-300, 1e300),
           half=st.integers(0, (tomography._MAX_QUADRATURE_BINS - 2) // 2),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_histogram2d_at_every_edge(self, support, half, seed):
        self.assert_matches_histogram2d(np.linspace(-support, support, 2 * half + 2), seed)

    @pytest.mark.parametrize("support", [1e308, np.finfo(float).max])
    @pytest.mark.parametrize("n_q", [3, 235, tomography._MAX_QUADRATURE_BINS - 1])
    def test_a_window_whose_width_overflows_is_binned_exactly(self, support, n_q):
        # np.linspace(-support, support) itself overflows; these edges do not
        self.assert_matches_histogram2d(support * np.linspace(-1.0, 1.0, n_q + 1), n_q)


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
