"""Shared helpers: seeded RNG, a generator of random physical states, a
check that a state owns its arrays, a two-sample check of first and second
moments and a check that a written ``report.json`` holds its RunResult; and
a guard that fails a test which leaves a quadrature record's drawing thread
running."""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from cvteleport import (
    GaussianState,
    beamsplitter,
    impure_squeezed_vacuum,
    loss,
    parse_config,
    rotate,
    tensor,
)
from cvteleport import gaussian


@pytest.fixture(autouse=True)
def no_drawer_left_running():
    """sample_record joins the thread that draws its normals before it
    returns or raises; fail any test after which one is still alive."""
    yield
    left = [t for t in threading.enumerate() if t.name == "sample_record-draw"]
    if left:
        pytest.fail(f"{len(left)} sample_record-draw thread(s) still alive after the test")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def random_physical_state(rng: np.random.Generator, n_modes: int, n_ops: int = 10):
    """Random n-mode Gaussian state: the first n modes of a random network on 2n.

    Each of the 2n modes starts as a squeezed vacuum, pure or impure (its
    anti-squeezed level at or above minus its squeezed level), turned by a
    random angle; ``n_ops`` random rotations, beamsplitters and losses act
    on them, the last n modes are traced out and the mean is drawn at random.
    A mixed n-mode state is the reduced state of a pure 2n-mode one
    (Williamson), and a pure state is beamsplitters and rotations acting on
    squeezed vacua (Bloch-Messiah), so with enough operations every Gaussian
    state is reached.
    """
    total = 2 * n_modes
    modes = []
    for _ in range(total):
        sq_db = rng.uniform(-10.4, 0.0)
        excess_db = rng.uniform(0.0, 6.0) if rng.random() < 0.5 else 0.0
        squeezed = impure_squeezed_vacuum(sq_db, excess_db - sq_db)
        modes.append(rotate(squeezed, 0, rng.uniform(0, np.pi)))
    state = tensor(*modes)
    for _ in range(n_ops):
        op = rng.integers(0, 3)
        mode = int(rng.integers(0, total))
        if op == 0:
            state = rotate(state, mode, rng.uniform(0, 2 * np.pi))
        elif op == 1:
            other = int(rng.integers(0, total - 1))
            other += other >= mode
            state = beamsplitter(state, mode, other, rng.uniform(0, 1))
        else:
            state = loss(state, mode, rng.uniform(0.2, 1.0))
    kept = slice(0, 2 * n_modes)
    return GaussianState(rng.normal(0, 2, 2 * n_modes), state.cov[kept, kept], validate=False)


def assert_owns_its_arrays(state, *given) -> None:
    """``state`` holds read-only float64 arrays that share no memory with each
    other, with any array in ``given`` or with the vacuum covariance that
    ``vacuum`` and ``coherent_state`` copy."""
    held = (state.mean, state.cov)
    for array in held:
        assert array.dtype == np.float64 and not array.flags.writeable
    assert not np.shares_memory(state.mean, state.cov)
    for other in (*given, gaussian._VACUUM_COV):
        for array in held:
            assert not np.shares_memory(array, other)


def assert_same_two_moments(a, b, limit: float = 5.0) -> None:
    """Entry by entry, the mean and the variance of two independent samples
    (trials along axis 0) agree within ``limit`` standard errors of their
    difference, each error estimated from its own sample (the variance's
    from the fourth central moment)."""

    def moments(sample):
        sample = np.asarray(sample).reshape(len(sample), -1)
        centred = sample - sample.mean(axis=0)
        var = np.mean(centred**2, axis=0)
        m4 = np.mean(centred**4, axis=0)
        return sample.mean(axis=0), var, var / len(sample), (m4 - var * var) / len(sample)

    mean_a, var_a, se2_mean_a, se2_var_a = moments(a)
    mean_b, var_b, se2_mean_b, se2_var_b = moments(b)
    assert np.all(np.abs(mean_a - mean_b) <= limit * np.sqrt(se2_mean_a + se2_mean_b))
    assert np.all(np.abs(var_a - var_b) <= limit * np.sqrt(se2_var_a + se2_var_b))


def _holds(data, value) -> bool:
    """``data``, as json.loads reads it, holds ``value`` exactly: a state as
    its mean and cov, a dataclass or named tuple field by field, arrays
    array_equal, floats equal and ints still ints."""
    if isinstance(value, GaussianState):
        value = {"mean": value.mean, "cov": value.cov}
    elif dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return (
            isinstance(data, dict)
            and data.keys() == value.keys()
            and all(_holds(data[key], item) for key, item in value.items())
        )
    if isinstance(value, np.ndarray):
        return np.array_equal(data, value)
    if isinstance(value, (list, tuple)):
        return isinstance(data, list) and len(data) == len(value) and all(map(_holds, data, value))
    # JSON gives back plain floats for numpy scalars; ints must stay ints.
    return data == value and isinstance(data, float) == isinstance(value, float)


def assert_report_holds(data: dict, result) -> None:
    """``data``, a ``report.json`` read back with json.loads, holds every
    field of the RunResult ``result``."""
    keys = {"config_text", "report", "provenance"}
    keys |= {name for name in ("trace", "wigner") if getattr(result, name) is not None}
    assert data.keys() == keys
    assert parse_config(data["config_text"]) == result.config
    assert _holds(data["report"], result.report)
    assert _holds(data["provenance"], result.provenance)
    if result.trace is not None:
        assert _holds(data["trace"], result.trace)
    if result.wigner is not None:
        spec = dataclasses.asdict(result.wigner.spec)
        assert _holds(data["wigner"], {**spec, "values": result.wigner.values})
