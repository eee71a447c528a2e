"""Tests for the sideband decomposition and the sum entanglement criterion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport import (
    GaussianState,
    VACUUM_VARIANCE,
    impure_squeezed_vacuum,
    rotate,
    symplectic_eigenvalues,
    vacuum,
)
from cvteleport import gaussian
from cvteleport.gaussian import apply_symplectic, quarter_turn, tensor
from cvteleport.sideband import (
    _P_DIFF,
    _SPLIT,
    _X_SUM,
    SidebandPair,
    delta_sq,
    is_entangled,
    sidebands_from_single_mode,
)
from conftest import assert_owns_its_arrays, random_physical_state

ATOL = 1e-12


def test_vacuum_sidebands_give_exactly_one():
    pair = sidebands_from_single_mode(vacuum(1))
    assert delta_sq(pair) == pytest.approx(1.0, abs=ATOL)
    verdict = is_entangled(pair)
    assert not verdict.entangled
    assert verdict.margin == pytest.approx(0.0, abs=ATOL)


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
        assert_owns_its_arrays(pair.state, state.mean, state.cov, _SPLIT)


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
def test_pair_moments_equal_the_gate_chain_bytewise(sq_db, excess_db, phi, mean):
    # squeezed up to 40 dB, anti-squeezed up to 40 dB beyond pure, turned so
    # the off-diagonal terms are non-zero (and, from round-off, can differ),
    # and displaced
    squeezed = rotate(impure_squeezed_vacuum(sq_db, excess_db - sq_db), 0, phi)
    state = gaussian._own(np.array(mean), squeezed.cov.copy())
    mirror = quarter_turn(gaussian._own(np.zeros(2), state.cov.copy()))
    chain = apply_symplectic(tensor(state, mirror), _SPLIT)
    pair = sidebands_from_single_mode(state)
    assert pair.mean.tobytes() == chain.mean.tobytes()
    assert pair.cov.tobytes() == chain.cov.tobytes()
