"""Tests for the Gaussian-state core.

Derived expectations are frozen from independent oracles: explicit matrix
congruence for the beamsplitter, beamsplitter-plus-partial-trace for the loss
channel, a rotated-frame read-off for marginal variances, and closed-form
two-mode squeezed conditionals for homodyne conditioning.
"""

from __future__ import annotations

import numpy as np
import pytest

from cvteleport import (
    GaussianState,
    PhysicsError,
    VACUUM_VARIANCE,
    beamsplitter,
    coherent_state,
    db_from_variance,
    displace,
    homodyne_condition,
    impure_squeezed_vacuum,
    loss,
    marginal_mean,
    marginal_variance,
    partial_trace,
    rotate,
    sample_phase_space,
    sample_quadrature,
    squeeze,
    symplectic_eigenvalues,
    tensor,
    total_mean_photons,
    vacuum,
    variance_from_db,
)
from conftest import random_physical_state

ATOL = 1e-12
# Frozen from the dB rule v = (1/4) 10^(dB/10).
VX_6DB = 0.0627971607877395
VX_62DB = 0.05997082297548726
VP_12DB = 3.962232981152783


def test_vacuum_moments():
    state = vacuum(2)
    assert np.allclose(state.mean, 0.0, atol=ATOL)
    assert np.allclose(state.cov, 0.25 * np.eye(4), atol=ATOL)
    with pytest.raises(ValueError):
        vacuum(0)


def test_state_validation_rejects_asymmetry_and_unphysical_cov():
    cov = 0.25 * np.eye(2)
    cov[0, 1] = 1e-6  # asymmetric beyond tolerance
    with pytest.raises(PhysicsError):
        GaussianState(np.zeros(2), cov)
    with pytest.raises(PhysicsError):
        GaussianState(np.zeros(2), np.diag([0.1, 0.1]))  # nu = 0.1 < 1/4
    # validate=False admits empirical moment holders
    GaussianState(np.zeros(2), np.diag([0.1, 0.1]), validate=False)


def test_state_is_immutable():
    state = vacuum(1)
    with pytest.raises(AttributeError):
        state.mean = np.zeros(2)
    with pytest.raises(ValueError):
        state.cov[0, 0] = 1.0


def test_squeeze_vacuum_variances():
    r = 0.3 * np.log(10)  # exp(-2r) = 10^-0.6, i.e. -6 dB
    state = squeeze(vacuum(1), 0, r)
    assert np.isclose(state.cov[0, 0], VX_6DB, atol=ATOL)
    assert np.isclose(state.cov[1, 1], 0.0625 / VX_6DB, atol=ATOL)
    assert np.isclose(db_from_variance(state.cov[0, 0], VACUUM_VARIANCE), -6.0, atol=1e-10)
    # r = 0 is the identity
    assert np.allclose(squeeze(vacuum(1), 0, 0.0).cov, 0.25 * np.eye(2), atol=ATOL)


def test_squeeze_along_p_and_inverse():
    state = squeeze(vacuum(1), 0, 0.5, theta=np.pi / 2)
    assert np.isclose(state.cov[1, 1], 0.25 * np.exp(-1.0), atol=ATOL)
    assert np.isclose(state.cov[0, 0], 0.25 * np.exp(1.0), atol=ATOL)
    undone = squeeze(state, 0, -0.5, theta=np.pi / 2)
    assert np.allclose(undone.cov, 0.25 * np.eye(2), atol=ATOL)


def test_impure_squeezed_vacuum_measured_noise_levels():
    state = impure_squeezed_vacuum(-6.2, 12.0)
    assert np.isclose(state.cov[0, 0], VX_62DB, atol=ATOL)
    assert np.isclose(state.cov[1, 1], VP_12DB, atol=ATOL)
    assert np.allclose(impure_squeezed_vacuum(0.0, 0.0).cov, vacuum(1).cov, atol=ATOL)


@pytest.mark.parametrize("pair", [(-1.0, 0.5), (0.5, 1.0), (-1.0, -0.5), (1.0, -1.0)])
def test_impure_squeezed_vacuum_rejects_bad_pairs(pair):
    with pytest.raises(PhysicsError):
        impure_squeezed_vacuum(*pair)


def test_displace_shifts_mean_only():
    state = displace(vacuum(2), 1, 1.5, -0.5)
    assert np.allclose(state.mean, [0.0, 0.0, 1.5, -0.5], atol=ATOL)
    assert np.allclose(state.cov, vacuum(2).cov, atol=ATOL)
    assert np.allclose(coherent_state(3.5 + 0j).mean, [3.5, 0.0], atol=ATOL)
    assert np.allclose(coherent_state(1 + 2j).mean, [1.0, 2.0], atol=ATOL)


def test_beamsplitter_identity_and_swap():
    state = displace(squeeze(vacuum(2), 0, 0.4), 0, 1.0, 0.0)
    passed = beamsplitter(state, 0, 1, 1.0)
    assert np.allclose(passed.cov, state.cov, atol=ATOL)
    assert np.allclose(passed.mean, state.mean, atol=ATOL)
    swapped = beamsplitter(state, 0, 1, 0.0)  # modes exchange up to a sign
    assert np.isclose(swapped.cov[2, 2], state.cov[0, 0], atol=ATOL)
    assert np.isclose(swapped.cov[0, 0], state.cov[2, 2], atol=ATOL)
    with pytest.raises(ValueError):
        beamsplitter(state, 0, 1, 1.2)
    with pytest.raises(ValueError):
        beamsplitter(state, 0, 0, 0.5)


def test_beamsplitter_against_congruence_oracle():
    # Oracle: explicit 4x4 symplectic applied to an x-squeezed (x) p-squeezed
    # pair; the balanced mixer then correlates x1 - x2 at the squeezed level.
    r = 0.3 * np.log(10)
    vin = np.diag([0.25 * np.exp(-2 * r), 0.25 * np.exp(2 * r),
                   0.25 * np.exp(2 * r), 0.25 * np.exp(-2 * r)])
    c = np.sqrt(0.5)
    s_oracle = np.array([
        [c, 0, c, 0],
        [0, c, 0, c],
        [-c, 0, c, 0],
        [0, -c, 0, c],
    ])
    v_oracle = s_oracle @ vin @ s_oracle.T

    pair = tensor(impure_squeezed_vacuum(-6.0, 6.0),
                  rotate(impure_squeezed_vacuum(-6.0, 6.0), 0, np.pi / 2))
    mixed = beamsplitter(pair, 0, 1, 0.5)
    assert np.allclose(mixed.cov, v_oracle, atol=ATOL)

    d = np.array([1.0, 0.0, -1.0, 0.0])  # Var(x_A - x_B)
    var_diff = d @ mixed.cov @ d
    assert np.isclose(var_diff, 2 * 0.25 * 10 ** -0.6, atol=ATOL)
    assert np.isclose(db_from_variance(var_diff, 0.5), -6.0, atol=1e-10)


def test_loss_limits_and_bs_plus_trace_oracle():
    state = impure_squeezed_vacuum(-6.0, 6.0)
    assert np.allclose(loss(state, 0, 1.0).cov, state.cov, atol=ATOL)
    assert np.allclose(loss(state, 0, 0.0).cov, vacuum(1).cov, atol=ATOL)

    eta = 0.9604  # visibility 0.98 squared
    oracle = partial_trace(beamsplitter(tensor(state, vacuum(1)), 0, 1, eta), [0])
    lossy = loss(state, 0, eta)
    assert np.allclose(lossy.cov, oracle.cov, atol=ATOL)
    assert np.isclose(lossy.cov[0, 0], 0.07021039322054501, atol=ATOL)
    assert np.isclose(
        db_from_variance(lossy.cov[0, 0], VACUUM_VARIANCE), -5.515386033195354, atol=1e-9
    )


def test_loss_scales_mean_and_cross_correlations():
    pair = beamsplitter(tensor(impure_squeezed_vacuum(-6.0, 6.0), vacuum(1)), 0, 1, 0.5)
    pair = displace(pair, 0, 2.0, 0.0)
    eta = 0.7
    lossy = loss(pair, 0, eta)
    assert np.isclose(lossy.mean[0], 2.0 * np.sqrt(eta), atol=ATOL)
    assert np.allclose(lossy.cov[:2, 2:], np.sqrt(eta) * pair.cov[:2, 2:], atol=ATOL)


def test_marginal_variance_values_and_periodicity():
    state = impure_squeezed_vacuum(-6.2, 12.0)
    assert np.isclose(marginal_variance(state, 0, 0.0), VX_62DB, atol=ATOL)
    assert np.isclose(marginal_variance(state, 0, np.pi / 2), VP_12DB, atol=ATOL)
    # Oracle: rotate the state by -theta and read the x variance.
    rotated = rotate(state, 0, -np.pi / 4)
    assert np.isclose(
        marginal_variance(state, 0, np.pi / 4), rotated.cov[0, 0], atol=ATOL
    )
    assert np.isclose(marginal_variance(state, 0, np.pi / 4), 2.011101902064135, atol=1e-9)
    for theta in np.linspace(0, np.pi, 7):
        assert np.isclose(
            marginal_variance(state, 0, theta),
            marginal_variance(state, 0, theta + np.pi),
            atol=ATOL,
        )
    assert np.isclose(marginal_variance(vacuum(1), 0, 1.234), 0.25, atol=ATOL)


def _two_mode_squeezed(r: float) -> GaussianState:
    pair = tensor(squeeze(vacuum(1), 0, r), squeeze(vacuum(1), 0, -r))
    return beamsplitter(pair, 0, 1, 0.5)


def test_homodyne_condition_matches_closed_form():
    # Oracle: for the balanced mix of an x- and a p-squeezed vacuum, both modes
    # have Var(x) = cosh(2r)/4, Cov(x, x) = sinh(2r)/4; conditioning on x = u
    # leaves the partner with mean tanh(2r) u and variance 1/(4 cosh(2r)).
    r = 6.0
    state = _two_mode_squeezed(r)
    assert np.isclose(state.cov[0, 0], np.cosh(2 * r) / 4, rtol=1e-12)
    assert np.isclose(state.cov[0, 2], np.sinh(2 * r) / 4, rtol=1e-12)

    u = 1.7
    conditioned = homodyne_condition(state, 0, 0.0, u)
    assert conditioned.n_modes == 1
    assert np.isclose(conditioned.mean[0], np.tanh(2 * r) * u, rtol=1e-12)
    assert np.isclose(conditioned.cov[0, 0], 1 / (4 * np.cosh(2 * r)), rtol=1e-9)
    assert np.isclose(conditioned.cov[1, 1], np.cosh(2 * r) / 4, rtol=1e-12)


def test_homodyne_condition_cov_outcome_independent_mean_linear():
    state = rotate(_two_mode_squeezed(0.7), 0, 0.3)
    outcomes = [-2.0, 0.0, 3.0]
    results = [homodyne_condition(state, 0, 0.9, u) for u in outcomes]
    assert np.allclose(results[0].cov, results[1].cov, atol=ATOL)
    assert np.allclose(results[0].cov, results[2].cov, atol=ATOL)
    # mean response is affine in the outcome
    slope = (results[2].mean - results[1].mean) / 3.0
    predicted = results[1].mean + slope * outcomes[0]
    assert np.allclose(results[0].mean, predicted, atol=1e-10)


def test_homodyne_condition_product_state_leaves_rest_untouched():
    state = tensor(coherent_state(1 + 1j), impure_squeezed_vacuum(-3.0, 3.0))
    conditioned = homodyne_condition(state, 1, 0.0, 0.4)
    assert np.allclose(conditioned.mean, [1.0, 1.0], atol=ATOL)
    assert np.allclose(conditioned.cov, 0.25 * np.eye(2), atol=ATOL)


def test_homodyne_condition_singular_variance_rejected():
    nearly_singular = tensor(squeeze(vacuum(1), 0, 18.0), vacuum(1))
    with pytest.raises(PhysicsError):
        homodyne_condition(nearly_singular, 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        homodyne_condition(vacuum(1), 0, 0.0, 0.0)


def test_sample_quadrature_vacuum_statistics(rng):
    draws = sample_quadrature(vacuum(1), 0, 0.0, rng, size=1_000_000)
    assert abs(np.var(draws) - 0.25) < 0.01 * 0.25
    assert abs(np.mean(draws)) < 5 * 0.5 / 1000.0


def test_sample_quadrature_squeezed_statistics(rng):
    state = impure_squeezed_vacuum(-6.0, 6.0)
    n = 100_000
    draws = sample_quadrature(state, 0, 0.0, rng, size=n)
    bound = 5 * VX_6DB * np.sqrt(2.0 / (n - 1))
    assert abs(np.var(draws) - VX_6DB) < bound


def test_sampling_is_deterministic_per_seed():
    a = sample_quadrature(vacuum(1), 0, 0.3, np.random.default_rng(7), size=16)
    b = sample_quadrature(vacuum(1), 0, 0.3, np.random.default_rng(7), size=16)
    assert np.array_equal(a, b)


def test_homodyne_mixture_reproduces_reduced_state(rng):
    # Averaging conditioned states over sampled outcomes must recover the
    # unconditioned reduced moments (law of total expectation/covariance).
    state = displace(rotate(_two_mode_squeezed(0.6), 0, 0.4), 1, 0.8, -0.3)
    reduced = partial_trace(state, [1])
    shots = 100_000
    means = np.empty((shots, 2))
    u = sample_quadrature(state, 0, 0.2, rng, size=shots)
    base = homodyne_condition(state, 0, 0.2, 0.0)
    step = homodyne_condition(state, 0, 0.2, 1.0)
    slope = step.mean - base.mean
    means = base.mean + np.outer(u, slope)
    cond_cov = base.cov

    total_mean = means.mean(axis=0)
    total_cov = cond_cov + np.cov(means.T)
    sd_mean = np.sqrt(np.diag(reduced.cov) / shots)
    assert np.all(np.abs(total_mean - reduced.mean) < 5 * sd_mean)
    sd_var = np.diag(reduced.cov) * np.sqrt(2.0 / (shots - 1))
    assert np.all(np.abs(np.diag(total_cov) - np.diag(reduced.cov)) < 5 * sd_var)
    sd_xp = np.sqrt(
        (reduced.cov[0, 0] * reduced.cov[1, 1] + reduced.cov[0, 1] ** 2) / (shots - 1)
    )
    assert abs(total_cov[0, 1] - reduced.cov[0, 1]) < 5 * sd_xp


def test_sample_phase_space_recovers_moments(rng):
    state = displace(squeeze(vacuum(1), 0, 0.5, theta=0.7), 0, 1.0, -2.0)
    n = 200_000
    pts = sample_phase_space(state, rng, n)
    assert pts.shape == (n, 2)
    emp_cov = np.cov(pts.T)
    assert np.all(np.abs(pts.mean(axis=0) - state.mean) < 5 * np.sqrt(np.diag(state.cov) / n))
    assert np.all(
        np.abs(np.diag(emp_cov) - np.diag(state.cov))
        < 5 * np.diag(state.cov) * np.sqrt(2.0 / (n - 1))
    )


def test_partial_trace_and_tensor_roundtrip():
    a = impure_squeezed_vacuum(-4.0, 5.0)
    b = coherent_state(0.5 - 1.5j)
    joint = tensor(a, b)
    assert np.allclose(partial_trace(joint, [0]).cov, a.cov, atol=ATOL)
    assert np.allclose(partial_trace(joint, [1]).mean, b.mean, atol=ATOL)
    # order of kept modes is respected
    swapped = partial_trace(joint, [1, 0])
    assert np.allclose(swapped.mean, np.concatenate([b.mean, a.mean]), atol=ATOL)
    with pytest.raises(ValueError):
        partial_trace(joint, [2])


def test_db_conversions_roundtrip_and_references():
    for level in [-12.3, -6.0, -0.62, 0.0, 3.0, 12.0]:
        for ref in (0.25, 0.5):
            variance = variance_from_db(level, ref)
            assert abs(db_from_variance(variance, ref) - level) < 1e-12
    assert np.isclose(variance_from_db(0.0, 0.25), 0.25, atol=ATOL)
    with pytest.raises(ValueError):
        db_from_variance(-1.0, 0.25)
    with pytest.raises(ValueError):
        db_from_variance(0.25, 0.0)


def test_reachable_states_respect_uncertainty(rng):
    for n_modes in (1, 2, 3):
        for _ in range(40):
            state = random_physical_state(rng, n_modes)
            assert symplectic_eigenvalues(state.cov).min() >= 0.25 - 1e-9
            for mode in range(n_modes):
                vx = marginal_variance(state, mode, 0.0)
                vp = marginal_variance(state, mode, np.pi / 2)
                assert vx * vp >= 1.0 / 16.0 - 1e-9


def test_symplectic_operations_preserve_purity_spectrum(rng):
    for _ in range(25):
        state = random_physical_state(rng, 2)
        nu = symplectic_eigenvalues(state.cov)
        candidates = [
            squeeze(state, 0, 0.7, theta=0.3),
            rotate(state, 1, 1.1),
            displace(state, 0, 0.5, -0.5),
            beamsplitter(state, 0, 1, 0.3),
        ]
        for out in candidates:
            assert np.allclose(np.sort(symplectic_eigenvalues(out.cov)), np.sort(nu), atol=1e-9)
        # loss is not symplectic but must keep the state physical
        assert symplectic_eigenvalues(loss(state, 0, 0.5).cov).min() >= 0.25 - 1e-9


def test_passive_operations_conserve_total_photons(rng):
    for _ in range(25):
        state = random_physical_state(rng, 3)
        before = total_mean_photons(state)
        mixed = beamsplitter(rotate(state, 2, 0.9), 0, 1, 0.42)
        assert np.isclose(total_mean_photons(mixed), before, atol=1e-10 * max(1.0, before))
        assert total_mean_photons(loss(state, 0, 0.5)) <= before + 1e-12
    assert np.isclose(total_mean_photons(vacuum(3)), 0.0, atol=ATOL)
    assert np.isclose(total_mean_photons(coherent_state(2.0 + 0j)), 4.0, atol=ATOL)
