"""Tests for the sideband decomposition and the sum entanglement criterion."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvteleport import (
    GaussianState,
    VACUUM_VARIANCE,
    impure_squeezed_vacuum,
    rotate,
    symplectic_eigenvalues,
    vacuum,
)
from cvteleport import gaussian, sideband
from cvteleport.gaussian import apply_symplectic, quarter_turn, tensor
from cvteleport.sideband import (
    SidebandPair,
    delta_sq,
    is_entangled,
    sidebands_from_single_mode,
)
from conftest import assert_float_form, assert_owns_its_arrays, random_physical_state

ATOL = 1e-12
# The weights of x+ + x- and p+ - p-, whose products delta_sq's sums reproduce.
_X_SUM = np.array([1.0, 0.0, 1.0, 0.0])
_P_DIFF = np.array([0.0, 1.0, 0.0, -1.0])
# The balanced split (a, mirror) -> ((a + mirror), (a - mirror)) / sqrt(2),
# through whose products the pair's moments are checked.
_SPLIT = np.sqrt(0.5) * np.block([[np.eye(2), np.eye(2)], [np.eye(2), -np.eye(2)]])


def exact_pair_cov(cov) -> list[list[float]]:
    """The pair's covariance [[C + M, C - M], [C - M, C + M]] / 2, with C the
    mode's covariance and M = [[cpp, -cpx], [-cxp, cxx]] the mirror's, each
    entry computed exactly and rounded once."""
    (cxx, cxp), (cpx, cpp) = ((Fraction(a), Fraction(b)) for a, b in cov.tolist())
    plus = [[cxx + cpp, cxp - cpx], [cpx - cxp, cpp + cxx]]
    minus = [[cxx - cpp, cxp + cpx], [cpx + cxp, cpp - cxx]]
    rows = [p + m for p, m in zip(plus, minus)] + [m + p for p, m in zip(plus, minus)]
    return [[float(entry / 2) for entry in row] for row in rows]


def test_vacuum_sidebands_give_exactly_one():
    pair = sidebands_from_single_mode(vacuum(1))
    assert delta_sq(pair) == 1.0
    verdict = is_entangled(pair)
    assert not verdict.entangled
    assert verdict.margin == 0.0


def test_split_factor_has_numpy_roots_bits():
    # math.sqrt and np.sqrt both round correctly, so the numpy-free constant
    # leaves the split's products as np.sqrt(0.5) made them
    assert type(sideband._ROOT_HALF) is float
    assert sideband._ROOT_HALF.hex() == float(np.sqrt(0.5)).hex()


def test_pair_covariance_is_the_exact_half_sums_rounded_once(rng):
    states = [vacuum(1), impure_squeezed_vacuum(-6.2, 12.0), rotate(vacuum(1), 0, 0.7)]
    states += [random_physical_state(rng, 1) for _ in range(300)]
    for state in states:
        assert sidebands_from_single_mode(state).cov.tolist() == exact_pair_cov(state.cov)


def test_measured_input_state_criterion_value():
    pair = sidebands_from_single_mode(impure_squeezed_vacuum(-6.2, 12.0))
    assert delta_sq(pair) == pytest.approx(0.240, abs=0.005)
    assert delta_sq(pair) == pytest.approx(4 * 0.25 * 10 ** -0.62, abs=ATOL)
    assert is_entangled(pair).entangled


def test_pure_6db_sideband_structure():
    state = impure_squeezed_vacuum(-6.0, 6.0)
    pair = sidebands_from_single_mode(state)
    assert delta_sq(pair) == pytest.approx(10 ** -0.6, abs=1e-9)
    # each sideband alone is thermal at the mean of the two variances
    expected = 0.5 * (state.cov[0, 0] + state.cov[1, 1])
    assert pair.cov[0, 0] == pytest.approx(expected, abs=ATOL)
    assert pair.cov[1, 1] == pytest.approx(expected, abs=ATOL)
    assert pair.cov[2, 2] == pytest.approx(expected, abs=ATOL)


def test_output_level_sideband_criterion():
    # a -0.8 dB squeezed mode sits just inside the entangled region
    pair = sidebands_from_single_mode(impure_squeezed_vacuum(-0.8, 12.4))
    assert delta_sq(pair) == pytest.approx(10 ** -0.08, abs=1e-9)
    verdict = is_entangled(pair)
    assert verdict.entangled
    assert verdict.margin == pytest.approx(1 - 10 ** -0.08, abs=1e-9)


def test_criterion_equals_noise_power_identity(rng):
    # Squeezing below vacuum <=> sideband entanglement: delta_sq = Vx / (1/4).
    states = [
        vacuum(1),
        impure_squeezed_vacuum(-6.2, 12.0),
        impure_squeezed_vacuum(-3.0, 3.5),
        GaussianState([1.0, -2.0], impure_squeezed_vacuum(-1.0, 2.0).cov),
    ]
    for state in states:
        lhs = delta_sq(sidebands_from_single_mode(state))
        rhs = state.cov[0, 0] / VACUUM_VARIANCE
        assert lhs == pytest.approx(rhs, abs=ATOL)


def test_entanglement_iff_squeezing_below_vacuum():
    for sq_db in (-6.0, -3.0, -0.5, -0.05):
        pair = sidebands_from_single_mode(impure_squeezed_vacuum(sq_db, 12.0))
        assert is_entangled(pair).entangled
    pair = sidebands_from_single_mode(impure_squeezed_vacuum(0.0, 12.0))
    assert not is_entangled(pair).entangled  # boundary is strict
    # monotonicity: stronger squeezing, smaller criterion value
    values = [
        delta_sq(sidebands_from_single_mode(impure_squeezed_vacuum(s, 12.0)))
        for s in (0.0, -1.0, -2.0, -4.0, -6.0, -9.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_derived_pair_is_physical(rng):
    for _ in range(30):
        state = random_physical_state(rng, 1)
        pair = sidebands_from_single_mode(state)
        assert symplectic_eigenvalues(pair.cov).min() >= 0.25 - 1e-9


def test_pair_owns_read_only_float64_arrays(rng):
    for _ in range(30):
        state = random_physical_state(rng, 1)
        pair = sidebands_from_single_mode(state)
        assert_owns_its_arrays(pair.state, state.mean, state.cov)


def test_pair_holds_python_floats(rng):
    for state in (*(random_physical_state(rng, 1) for _ in range(30)), vacuum(1)):
        assert_float_form(sidebands_from_single_mode(state).state)


def test_delta_sq_equals_the_matrix_products_bytewise(rng):
    # the float sums group as the products do; summed left to right they
    # would round differently for some states
    pairs = [SidebandPair(random_physical_state(rng, 2)) for _ in range(200)]
    pairs += [sidebands_from_single_mode(random_physical_state(rng, 1)) for _ in range(200)]
    for pair in pairs:
        value = delta_sq(pair)
        products = _X_SUM @ pair.cov @ _X_SUM + _P_DIFF @ pair.cov @ _P_DIFF
        assert type(value) is float
        assert np.float64(value).tobytes() == products.tobytes()


def test_displacement_does_not_change_criterion():
    state = impure_squeezed_vacuum(-6.2, 12.0)
    moved = GaussianState(state.mean + [3.5, 1.0], state.cov)
    assert delta_sq(sidebands_from_single_mode(moved)) == pytest.approx(
        delta_sq(sidebands_from_single_mode(state)), abs=ATOL
    )
    pair = sidebands_from_single_mode(vacuum(1))
    assert np.allclose(pair.mean, 0.0, atol=ATOL)


def test_pair_requires_two_modes_and_single_mode_input():
    with pytest.raises(ValueError):
        sidebands_from_single_mode(vacuum(2))
    with pytest.raises(ValueError):
        SidebandPair(vacuum(1))
    with pytest.raises(ValueError):
        SidebandPair(vacuum(3))


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_split_pair_behaves_as_a_checked_pair(rng, copier):
    # sidebands_from_single_mode builds its pair without SidebandPair's check
    for state in (vacuum(1), *(random_physical_state(rng, 1) for _ in range(10))):
        pair = sidebands_from_single_mode(state)
        checked = SidebandPair(pair.state)
        assert type(pair) is SidebandPair
        assert pair == checked and hash(pair) == hash(checked)
        assert repr(pair) == repr(checked)
        copied = copier(pair)
        assert type(copied) is SidebandPair and not hasattr(copied, "__dict__")
        assert copied.mean.tobytes() == pair.mean.tobytes()
        assert copied.cov.tobytes() == pair.cov.tobytes()
        assert delta_sq(copied) == delta_sq(pair)
        for array in (pair.mean, pair.cov, copied.mean, copied.cov):
            assert not array.flags.writeable
        with pytest.raises(AttributeError):
            pair.state = vacuum(2)
        with pytest.raises(ValueError, match="^SidebandPair requires exactly two modes$"):
            pair._replace(state=vacuum(1))
        assert pair._replace(state=vacuum(2)).state.n_modes == 2


def test_rotated_input_uses_x_axis_combinations():
    # the criterion reads the x statistics of whatever frame the mode is in
    state = rotate(impure_squeezed_vacuum(-6.0, 6.0), 0, np.pi / 2)
    pair = sidebands_from_single_mode(state)
    assert delta_sq(pair) == pytest.approx(10 ** 0.6, rel=1e-9)
    assert not is_entangled(pair).entangled


@settings(max_examples=200, deadline=None)
@given(
    sq_db=st.floats(-40.0, 0.0),
    excess_db=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    phi=st.floats(-7.0, 7.0),
    mean=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
# a -0.0 mean splits to +0.0, as the split's products give it
@example(sq_db=-3.0, excess_db=0.0, phi=0.5, mean=(-0.0, -0.0))
@example(sq_db=-3.0, excess_db=0.0, phi=0.5, mean=(-0.0, 2.0))
def test_pair_moments_equal_the_gate_chain_bytewise(sq_db, excess_db, phi, mean):
    # squeezed up to 40 dB, anti-squeezed up to 40 dB beyond pure, turned so
    # the off-diagonal terms are non-zero (and, from round-off, can differ),
    # and displaced.  The mean is the chain's, byte for byte.  The chain's
    # covariance goes through fl(sqrt(1/2))^2 = 0.5000000000000001 and two
    # rounded products, so it is within 4 ulps of max |cov| of the pair's,
    # which is exact to one rounding (3 ulps at most over 100,000 random states).
    squeezed = rotate(impure_squeezed_vacuum(sq_db, excess_db - sq_db), 0, phi)
    state = gaussian._own(list(mean), squeezed.cov.tolist())
    mirror = quarter_turn(gaussian._own([0.0, 0.0], state.cov.tolist()))
    chain = apply_symplectic(tensor(state, mirror), _SPLIT)
    pair = sidebands_from_single_mode(state)
    assert pair.mean.tobytes() == chain.mean.tobytes()
    ulp = np.spacing(np.abs(chain.cov).max())
    assert np.abs(pair.cov - chain.cov).max() <= 4 * ulp
    assert pair.cov.tolist() == exact_pair_cov(state.cov)
