"""Shared helpers: seeded RNG, a generator of random physical states, a
check that a state owns its arrays, a two-sample check of first and second
moments, an exact-arithmetic oracle for the float kernels, a check that a
written ``report.json`` holds its RunResult and a runner of code in a fresh
interpreter."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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

_SRC = str(Path(gaussian.__file__).resolve().parents[1])


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
    return gaussian._own(rng.normal(0, 2, 2 * n_modes).tolist(), state.cov[kept, kept].tolist())


def assert_owns_its_arrays(state, *given) -> None:
    """``state`` holds read-only float64 arrays that share no memory with each
    other or with any array in ``given``."""
    held = (state.mean, state.cov)
    for array in held:
        assert array.dtype == np.float64 and not array.flags.writeable
    assert not np.shares_memory(state.mean, state.cov)
    for other in given:
        for array in held:
            assert not np.shares_memory(array, other)


def assert_float_form(state) -> None:
    """``state`` holds its mean and the rows of its covariance as lists of
    Python floats, never numpy scalars, of a state's shapes; each read of
    ``mean`` or ``cov`` returns the same read-only float64 array, with the
    bytes of np.array of those floats."""
    mean, cov = gaussian._moments(state)
    assert type(mean) is list and type(cov) is list
    assert len(mean) >= 2 and len(mean) % 2 == 0 and len(cov) == len(mean)
    for row in cov:
        assert type(row) is list and len(row) == len(mean)
    assert {type(value) for value in [*mean, *(value for row in cov for value in row)]} == {float}
    for array, floats in ((state.mean, mean), (state.cov, cov)):
        assert array.dtype == np.float64 and not array.flags.writeable
        assert array.tobytes() == np.array(floats).tobytes()
    assert state.mean is state.mean and state.cov is state.cov


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


# The exact oracle of the float kernels (the gates, the Monte Carlo Cholesky
# factor and the Bartlett product): the same float inputs multiplied out in
# fractions.Fraction, which rounds nothing.  A kernel must come within
# EXACT_ULPS of it, in ulps of the largest |entry| of its input and of the
# exact result, M.  The bound comes from the standard rounding model with
# u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., ch. 3 and 10), set before it was measured, and each kernel's worst case
# is below it, since ulp(M) > M 2^-53:
#   * a gate (`beamsplitter`, `rotate`): each mixed row entry ct a + st b is
#     within 2u (|ct| + |st|) M <= 2 sqrt(2) u M of exact, and mixing those
#     rows' columns adds sqrt(2) 2 sqrt(2) u M + 2u sqrt(2) sqrt(2) M, so
#     8 u M < 8 ulp(M) in all;
#   * the Cholesky factor L of cov + 1e-14 I: L L^T is within
#     gamma_5 |L| |L^T| <= 5 u M of it (Higham, theorem 10.3), and rounding
#     each pivot's a_ii + 1e-14 adds u M: 6 u M < 6 ulp(M);
#   * the Bartlett product L L^T / (shots - 1): a sum of at most four products,
#     within gamma_4 of the sum of their |values| <= M (Cauchy-Schwarz), then
#     a division: 5 u M < 5 ulp(M).
EXACT_ULPS = 8


def exact(values) -> list:
    """A float, or nested lists or arrays of floats, as Fractions."""
    if isinstance(values, (list, tuple, np.ndarray)):
        return [exact(value) for value in values]
    return Fraction(float(values))


def _exact_product(a: list, b: list) -> list:
    """a b of two matrices of Fractions, each a list of rows."""
    return [[sum((x * y for x, y in zip(row, column)), Fraction(0)) for column in zip(*b)]
            for row in a]


def exact_gram(rows: list) -> list:
    """rows rows^T in Fractions: L L^T of a factor L given as its rows."""
    return _exact_product(rows, [list(column) for column in zip(*rows)])


def exact_congruence(s: list, mean: list, cov: list) -> tuple[list, list]:
    """S mean and S cov S^T in Fractions."""
    s_mean = [row[0] for row in _exact_product(s, [[m] for m in mean])]
    return s_mean, _exact_product(_exact_product(s, cov), [list(c) for c in zip(*s)])


def ulps_from_exact(found, expected, *inputs) -> float:
    """Largest |found - expected| over the entries, in ulps of the largest
    |entry| of ``expected`` and ``inputs`` (0 where all of them are 0)."""
    def flat(values):
        if isinstance(values, (list, tuple, np.ndarray)):
            return [entry for value in values for entry in flat(value)]
        return [Fraction(values)]

    scale = max(abs(entry) for values in (expected, *inputs) for entry in flat(values))
    error = max(abs(f - e) for f, e in zip(flat(found), flat(expected), strict=True))
    return 0.0 if error == 0 else float(error / Fraction(math.ulp(float(scale))))


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


def fresh_python(code: str, *args: str, cwd: Path | None = None) -> str:
    """Run ``code`` with ``args`` in a new interpreter that imports this
    source tree, and return its stdout; a nonzero exit fails the test."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
        cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    return result.stdout
