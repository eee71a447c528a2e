"""Tests for the Gaussian-state core.

Derived expectations are frozen from independent oracles: explicit matrix
congruence for the beamsplitter and beamsplitter-plus-partial-trace for the
loss channel.
"""

from __future__ import annotations

import copy
import functools
import inspect
import math
import pickle
import re

import numpy as np
import pytest

import cvteleport
from cvteleport import (
    ExperimentConfig,
    GaussianState,
    GridSpec,
    PhysicsError,
    TeleporterParams,
    VACUUM_VARIANCE,
    beamsplitter,
    calibrate_losses,
    cascade,
    coherent_fidelity,
    coherent_state,
    db_from_variance,
    impure_squeezed_vacuum,
    inverse_radon,
    loss,
    output_variances_pure,
    rotate,
    run,
    sample_record,
    sidebands_from_single_mode,
    spectrum_trace,
    symplectic_eigenvalues,
    teleport_mc,
    tensor,
    vacuum,
    variance_from_db,
    wigner_analytic,
)
from cvteleport import gaussian
from cvteleport.gaussian import MAX_LEVEL_DB, apply_symplectic, quarter_turn
from conftest import (
    EXACT_ULPS,
    assert_float_form,
    assert_owns_its_arrays,
    exact,
    exact_congruence,
    random_physical_state,
    ulps_from_exact,
)

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
    # Non-finite moments are named before the symmetry check can misread them.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^mean must be finite$"):
            GaussianState([bad, 0.0], 0.25 * np.eye(2))
        with pytest.raises(ValueError, match="^cov must be finite$"):
            GaussianState(np.zeros(2), [[0.25, bad], [bad, 0.25]])
    with pytest.raises(ValueError, match="^cov must be finite$"):
        GaussianState(np.zeros(2), np.diag([np.nan, 0.25]))


def test_symmetry_tolerance_scales_with_the_covariance():
    # a rotated squeezed state at a variance of 9,188 whose off-diagonal terms
    # differ by one ulp, 1.8e-12: round-off at that scale, beyond the
    # unit-scale bound
    state = rotate(impure_squeezed_vacuum(-19.0, 51.0), 0, 1.0)
    asymmetric = state.cov.copy()
    asymmetric[0, 1] = np.nextafter(asymmetric[1, 0], 0.0)
    assert np.abs(asymmetric - asymmetric.T).max() > gaussian.SYMMETRY_ATOL
    accepted = GaussianState(state.mean, asymmetric)
    assert np.array_equal(accepted.cov, accepted.cov.T)
    # below unit scale the bound stays SYMMETRY_ATOL itself
    vacuum_cov = 0.25 * np.eye(2)
    vacuum_cov[0, 1] += 0.5 * gaussian.SYMMETRY_ATOL
    GaussianState(np.zeros(2), vacuum_cov)
    # an asymmetry of 1e-9 of the scale is no round-off, at unit scale or large
    for cov in (0.25 * np.eye(2), state.cov):
        skewed = cov.copy()
        skewed[0, 1] += 1e-9 * np.abs(cov).max()
        with pytest.raises(PhysicsError, match="not symmetric"):
            GaussianState(np.zeros(2), skewed)


def test_state_is_immutable():
    state = vacuum(1)
    with pytest.raises(AttributeError):
        state.mean = np.zeros(2)
    with pytest.raises(ValueError):
        state.cov[0, 0] = 1.0


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("copier", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("make", [
    lambda: coherent_state(1 + 2j),
    lambda: random_physical_state(np.random.default_rng(3), 3),
], ids=["one_mode", "three_modes"])
def test_copied_state_keeps_its_moments_and_immutability(make, copier):
    # A copy is rebuilt from the held floats, which it holds in the same form;
    # a state whose arrays were read copies as one whose arrays were not.
    state = make()
    state.mean, state.cov
    copied = copier(state)
    assert type(copied) is GaussianState and copied.n_modes == state.n_modes
    assert gaussian._moments(copied) == gaussian._moments(state)
    assert_float_form(copied)
    assert copied.mean.tobytes() == state.mean.tobytes()
    assert copied.cov.tobytes() == state.cov.tobytes()
    with pytest.raises(AttributeError, match="immutable"):
        copied.mean = np.zeros(2)
    with pytest.raises(ValueError):
        copied.cov[0, 0] = 1.0


def test_squeeze_vacuum_variances():
    # pure squeezed vacuum of parameter r: Var(x) = exp(-2r) / 4, Var(p) = exp(2r) / 4
    r = 0.3 * np.log(10)  # exp(-2r) = 10^-0.6, i.e. -6 dB
    state = impure_squeezed_vacuum(-6.0, 6.0)
    assert np.isclose(state.cov[0, 0], VX_6DB, atol=ATOL)
    assert np.isclose(state.cov[0, 0], 0.25 * np.exp(-2 * r), atol=ATOL)
    assert np.isclose(state.cov[1, 1], 0.0625 / VX_6DB, atol=ATOL)
    assert np.isclose(db_from_variance(state.cov[0, 0], VACUUM_VARIANCE), -6.0, atol=1e-10)
    # r = 0 is the vacuum
    assert np.allclose(impure_squeezed_vacuum(0.0, 0.0).cov, 0.25 * np.eye(2), atol=ATOL)


def test_squeeze_along_p_and_inverse():
    # a quarter turn carries the squeezing from x to p; turning back undoes it
    db = 10.0 * np.log10(np.exp(-1.0))  # r = 0.5
    along_x = impure_squeezed_vacuum(db, -db)
    state = rotate(along_x, 0, np.pi / 2)
    assert np.isclose(state.cov[1, 1], 0.25 * np.exp(-1.0), atol=ATOL)
    assert np.isclose(state.cov[0, 0], 0.25 * np.exp(1.0), atol=ATOL)
    undone = rotate(state, 0, -np.pi / 2)
    assert np.allclose(undone.cov, along_x.cov, atol=ATOL)


def test_impure_squeezed_vacuum_measured_noise_levels():
    state = impure_squeezed_vacuum(-6.2, 12.0)
    assert np.isclose(state.cov[0, 0], VX_62DB, atol=ATOL)
    assert np.isclose(state.cov[1, 1], VP_12DB, atol=ATOL)
    assert np.allclose(impure_squeezed_vacuum(0.0, 0.0).cov, vacuum(1).cov, atol=ATOL)


@pytest.mark.parametrize(
    "pair",
    [(-1.0, 0.5), (0.5, 1.0), (-1.0, -0.5), (1.0, -1.0), (-np.inf, np.inf), (-6.0, np.nan),
     (-6.0, 4000.0)],
)
def test_impure_squeezed_vacuum_rejects_bad_pairs(pair):
    with pytest.raises(PhysicsError, match="is not a valid squeezed/anti-squeezed combination"):
        impure_squeezed_vacuum(*pair)


def test_largest_accepted_level_has_a_finite_variance():
    state = impure_squeezed_vacuum(-MAX_LEVEL_DB, MAX_LEVEL_DB)
    assert np.all(np.isfinite(state.cov)) and state.cov[1, 1] > 1e307


def test_quarter_turn_is_exact():
    state = GaussianState([1.5, 0.0], [[0.3, 0.1], [0.1, 0.9]])
    turned = quarter_turn(state)
    # rotate() by pi/2 agrees up to its cos(pi/2) = 6e-17 terms
    assert np.allclose(turned.cov, rotate(state, 0, np.pi / 2).cov, atol=ATOL)
    assert np.array_equal(turned.mean, [0.0, 1.5]) and not np.signbit(turned.mean[0])
    assert np.array_equal(turned.cov, [[0.9, -0.1], [-0.1, 0.3]])
    squeezed = quarter_turn(impure_squeezed_vacuum(-6.0, 6.0))
    assert not np.any(np.signbit(squeezed.mean)) and not np.any(np.signbit(squeezed.cov))


def test_coherent_state_is_displaced_vacuum():
    assert np.allclose(coherent_state(3.5 + 0j).mean, [3.5, 0.0], atol=ATOL)
    assert np.allclose(coherent_state(1 + 2j).mean, [1.0, 2.0], atol=ATOL)
    assert np.array_equal(coherent_state(1 + 2j).cov, vacuum(1).cov)


def test_vacuum_covariance_is_copied_not_shared():
    states = (coherent_state(1 + 2j), vacuum(1), coherent_state(1 + 2j), vacuum(1))
    for k, state in enumerate(states):
        assert not state.cov.flags.writeable and not state.mean.flags.writeable
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0
        for other in states[:k]:
            for held, theirs in zip(gaussian._moments(state), gaussian._moments(other)):
                assert held is not theirs
            assert all(row is not theirs for row in gaussian._moments(state)[1]
                       for theirs in gaussian._moments(other)[1])
    assert np.array_equal(vacuum(1).cov, 0.25 * np.eye(2))
    assert GaussianState([[1.0], [2.0]], 0.25 * np.eye(2)).mean.shape == (2,)


# A balanced mixer's symplectic matrix, which apply_symplectic must not hold.
_MIXER = np.sqrt(0.5) * np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]]
)

# Every gate, on a random one-mode state a and two-mode state b.
GATES = {
    "vacuum": lambda a, b, rng: vacuum(int(rng.integers(1, 4))),
    "coherent_state": lambda a, b, rng: coherent_state(complex(*rng.normal(0.0, 2.0, 2))),
    "impure_squeezed_vacuum": lambda a, b, rng: impure_squeezed_vacuum(
        rng.uniform(-10.0, 0.0), rng.uniform(10.0, 16.0)
    ),
    "tensor": lambda a, b, rng: tensor(a, b),
    "apply_symplectic": lambda a, b, rng: apply_symplectic(b, _MIXER),
    "rotate one mode": lambda a, b, rng: rotate(a, 0, rng.uniform(0.0, 2 * np.pi)),
    "rotate": lambda a, b, rng: rotate(b, int(rng.integers(2)), rng.uniform(0.0, 2 * np.pi)),
    "quarter_turn": lambda a, b, rng: quarter_turn(a),
    "beamsplitter": lambda a, b, rng: beamsplitter(b, 1, 0, rng.uniform(0.0, 1.0)),
    "loss": lambda a, b, rng: loss(b, int(rng.integers(2)), rng.uniform(0.0, 1.0)),
}


@pytest.mark.parametrize("gate", GATES)
def test_gate_output_owns_read_only_float64_arrays(gate, rng):
    # gates build their outputs with gaussian._own, which takes the lists
    # the gate has just built; no array may be an input's
    for _ in range(20):
        a, b = random_physical_state(rng, 1), random_physical_state(rng, 2)
        out = GATES[gate](a, b, rng)
        assert_owns_its_arrays(out, a.mean, a.cov, b.mean, b.cov, _MIXER)


def _held_bytes(*states):
    return [np.array(floats).tobytes() for state in states for floats in gaussian._moments(state)]


@pytest.mark.parametrize("gate", GATES)
def test_gate_output_holds_python_floats(gate, rng):
    for _ in range(20):
        a, b = random_physical_state(rng, 1), random_physical_state(rng, 2)
        before = _held_bytes(a, b)
        out = GATES[gate](a, b, rng)
        assert not hasattr(out, "_mean_array") and not hasattr(out, "_cov_array")
        assert_float_form(out)
        # a gate's kernel changes copies: the inputs' held floats are as they were
        assert _held_bytes(a, b) == before


def test_held_lists_are_the_floats_of_the_arrays(rng):
    # the public constructor holds its validated arrays and their floats
    state = random_physical_state(rng, 2)
    built = GaussianState(state.mean, state.cov)
    assert_float_form(built)
    mean, cov = gaussian._moments(built)
    assert mean == built.mean.tolist() and cov == built.cov.tolist()


@pytest.mark.parametrize("writeable", [True, False])
def test_public_constructor_copies_the_caller_arrays(writeable, rng):
    # a read-only caller array is copied too: its owner may make it writeable
    state = random_physical_state(rng, 2)
    mean, cov = state.mean.copy(), state.cov.copy()
    mean.setflags(write=writeable)
    cov.setflags(write=writeable)
    held = GaussianState(mean, cov)
    assert_owns_its_arrays(held, mean, cov)
    assert mean.flags.writeable == cov.flags.writeable == writeable


def test_own_keeps_the_shape_checks():
    def zeros(rows, width):
        return [[0.0] * width for _ in range(rows)]

    with pytest.raises(ValueError, match="mean must have even length >= 2, got 3"):
        gaussian._own([0.0] * 3, zeros(3, 3))
    with pytest.raises(ValueError, match="mean must have even length >= 2, got 0"):
        gaussian._own([], [])
    with pytest.raises(ValueError, match=r"cov shape \(3, 3\) does not match mean length 2"):
        gaussian._own([0.0] * 2, zeros(3, 3))
    with pytest.raises(ValueError, match=r"cov shape \(2, 3\) does not match mean length 2"):
        gaussian._own([0.0] * 2, zeros(2, 3))
    with pytest.raises(ValueError, match=r"^cov shape \(2 rows of lengths \[1, 2\]\) does not "
                                         "match mean length 2$"):
        gaussian._own([0.0] * 2, [[0.25], [0.0, 0.25]])
    assert gaussian._own([0.0] * 2, zeros(2, 2)).mean.shape == (2,)


@pytest.mark.parametrize("mean, cov", [
    (np.zeros(2), [[0.25, 0.0], [0.0, 0.25]]),
    ([0.0, 0.0], 0.25 * np.eye(2)),
    ([0.0, 0.0], [np.array([0.25, 0.0]), [0.0, 0.25]]),
    ((0.0, 0.0), [[0.25, 0.0], [0.0, 0.25]]),
], ids=["array mean", "array cov", "array row", "tuple mean"])
def test_own_takes_only_lists(mean, cov):
    with pytest.raises(TypeError, match="^_own takes the mean and the covariance rows as lists"):
        gaussian._own(mean, cov)


@pytest.mark.parametrize("alpha", [complex(np.nan, 0.0), complex(1.0, np.inf), -np.inf])
def test_coherent_state_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="^alpha must be finite, got "):
        coherent_state(alpha)


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
def test_rotate_rejects_a_non_finite_phase(phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        rotate(vacuum(1), 0, phi)
    with pytest.raises(ValueError, match="phi must be finite"):
        rotate(vacuum(2), 1, phi)


def _gate_ulps(state, out, matrix) -> float:
    """How far ``out`` is from the exact S mean, S cov S^T of ``state`` with
    the float symplectic matrix ``matrix`` (`conftest.EXACT_ULPS`)."""
    mean, cov = exact_congruence(exact(matrix), exact(state.mean), exact(state.cov))
    return max(ulps_from_exact(out.mean, mean, state.mean),
               ulps_from_exact(out.cov, cov, state.cov))


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_rotate_and_beamsplitter_are_exact_to_the_bound(rng, n_modes):
    # the n-mode rules, from the float coefficients the gates use: identity
    # with the 2 x 2 rotation [[cos, -sin], [sin, cos]] in the mode's block;
    # identity with sqrt(t) and +-sqrt(1 - t) on quadratures i and j
    for _ in range(16):
        state = random_physical_state(rng, n_modes)
        dim = 2 * n_modes
        phi = rng.uniform(-10.0, 10.0)
        c, s = math.cos(phi), math.sin(phi)
        for mode in range(n_modes):
            matrix = np.eye(dim)
            matrix[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, -s], [s, c]]
            assert _gate_ulps(state, rotate(state, mode, phi), matrix) <= EXACT_ULPS
        for t in (0.0, 0.5, 1.0, rng.uniform(0.0, 1.0)):
            ct, st = math.sqrt(t), math.sqrt(1.0 - t)
            for i in range(n_modes):
                for j in range(n_modes):
                    if i == j:
                        continue
                    matrix = np.eye(dim)
                    for a, b in ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1)):
                        matrix[a, a] = matrix[b, b] = ct
                        matrix[a, b], matrix[b, a] = st, -st
                    out = beamsplitter(state, i, j, t)
                    assert _gate_ulps(state, out, matrix) <= EXACT_ULPS


def test_beamsplitter_identity_and_swap():
    displaced = GaussianState([1.0, 0.0], impure_squeezed_vacuum(-3.5, 3.5).cov)
    state = tensor(displaced, vacuum(1))
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
    # Partial trace over the ancilla: keep mode 0's block of the mixed pair.
    oracle = beamsplitter(tensor(state, vacuum(1)), 0, 1, eta).cov[:2, :2]
    lossy = loss(state, 0, eta)
    assert np.allclose(lossy.cov, oracle, atol=ATOL)
    assert np.isclose(lossy.cov[0, 0], 0.07021039322054501, atol=ATOL)
    assert np.isclose(
        db_from_variance(lossy.cov[0, 0], VACUUM_VARIANCE), -5.515386033195354, atol=1e-9
    )


def test_loss_scales_mean_and_cross_correlations():
    pair = beamsplitter(tensor(impure_squeezed_vacuum(-6.0, 6.0), vacuum(1)), 0, 1, 0.5)
    pair = GaussianState(pair.mean + [2.0, 0.0, 0.0, 0.0], pair.cov)
    eta = 0.7
    lossy = loss(pair, 0, eta)
    assert np.isclose(lossy.mean[0], 2.0 * np.sqrt(eta), atol=ATOL)
    assert np.allclose(lossy.cov[:2, 2:], np.sqrt(eta) * pair.cov[:2, 2:], atol=ATOL)


def test_partial_trace_and_tensor_roundtrip():
    # Tracing out a mode of a product state is slicing out its block.
    a = impure_squeezed_vacuum(-4.0, 5.0)
    b = coherent_state(0.5 - 1.5j)
    c = rotate(impure_squeezed_vacuum(-2.0, 3.0), 0, 0.6)
    joint = tensor(a, b, c)
    assert joint.n_modes == 3
    for k, part in enumerate((a, b, c)):
        block = slice(2 * k, 2 * k + 2)
        assert np.array_equal(joint.mean[block], part.mean)
        assert np.array_equal(joint.cov[block, block], part.cov)
    # no correlations between the factors
    assert not np.any(joint.cov[:2, 2:]) and not np.any(joint.cov[2:4, 4:])
    assert np.array_equal(tensor(b, a).mean, np.concatenate([b.mean, a.mean]))
    with pytest.raises(ValueError):
        tensor()


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
                vx = state.cov[2 * mode, 2 * mode]
                vp = state.cov[2 * mode + 1, 2 * mode + 1]
                assert vx * vp >= 1.0 / 16.0 - 1e-9


def test_symplectic_operations_preserve_purity_spectrum(rng):
    for _ in range(25):
        state = random_physical_state(rng, 2)
        nu = symplectic_eigenvalues(state.cov)
        candidates = [
            rotate(state, 1, 1.1),
            beamsplitter(state, 0, 1, 0.3),
        ]
        for out in candidates:
            assert np.allclose(np.sort(symplectic_eigenvalues(out.cov)), np.sort(nu), atol=1e-9)
        # loss is not symplectic but must keep the state physical
        assert symplectic_eigenvalues(loss(state, 0, 0.5).cov).min() >= 0.25 - 1e-9


def _total_photons(state: GaussianState) -> float:
    """Sum over modes of Vx + Vp - 1/2 + <x>^2 + <p>^2 (hbar = 1/2)."""
    return float(np.trace(state.cov) - state.n_modes / 2 + state.mean @ state.mean)


def test_passive_operations_conserve_total_photons(rng):
    for _ in range(25):
        state = random_physical_state(rng, 3)
        before = _total_photons(state)
        mixed = beamsplitter(rotate(state, 2, 0.9), 0, 1, 0.42)
        assert np.isclose(_total_photons(mixed), before, atol=1e-10 * max(1.0, before))
        assert _total_photons(loss(state, 0, 0.5)) <= before + 1e-12
    assert np.isclose(_total_photons(vacuum(3)), 0.0, atol=ATOL)
    assert np.isclose(_total_photons(coherent_state(2.0 + 0j)), 4.0, atol=ATOL)


def _cutoff(value):
    def call():
        record = sample_record(vacuum(1), 1000, np.random.default_rng(0))
        return inverse_radon(record, GridSpec.from_state(vacuum(1)), filter_cutoff=value)
    return call


# Hand-picked out-of-domain values, each with the message that must name
# it; the boundary table below adds a row per argument and bad-value class.
_SPECIFIC_ROWS = [
    (lambda: vacuum(2.5), "n_modes must be an integer, got 2.5"),
    (lambda: vacuum(True), "n_modes must be an integer, got True"),
    (lambda: rotate(vacuum(2), 1.0, 0.3), "mode must be an integer, got 1.0"),
    (lambda: loss(vacuum(2), 1.0, 0.5), "mode must be an integer, got 1.0"),
    (lambda: beamsplitter(vacuum(2), 1.0, 0, 0.5), "mode_i must be an integer, got 1.0"),
    (lambda: beamsplitter(vacuum(2), 0, True, 0.5), "mode_j must be an integer, got True"),
    (_cutoff(True), "filter_cutoff must be a number, got True"),
    (_cutoff("1"), "filter_cutoff must be a number, got '1'"),
    (_cutoff(2 + 0j), r"filter_cutoff must be a number, got \(2\+0j\)"),
    (lambda: GridSpec(-1, 1, -1, 1, "5", 5), "n_x must be an integer, got '5'"),
    (lambda: GridSpec("-1", 1, -1, 1), "x_min must be a number, got '-1'"),
    (lambda: rotate(vacuum(1), 0, "0.3"), "phi must be a number, got '0.3'"),
    (lambda: coherent_state("1"), "alpha must be a number, got '1'"),
    (lambda: loss(vacuum(2), 0, "0.5"), "eta must be a number, got '0.5'"),
    (lambda: beamsplitter(vacuum(2), 0, 1, "0.5"), "transmittance must be a number, got '0.5'"),
    (lambda: loss(vacuum(2), 0, np.complex128(0.5)),
     r"eta must be a number, got np.complex128\(0.5\+0j\)"),
    (lambda: loss(vacuum(2), 0, np.complex64(0.5)),
     r"eta must be a number, got np.complex64\(0.5\+0j\)"),
    (lambda: TeleporterParams(input_state=vacuum(1), g_x="1"), "g_x must be a number, got '1'"),
    (lambda: TeleporterParams(input_state=vacuum(1), g_p=True), "g_p must be a number, got True"),
    (lambda: TeleporterParams(input_state=vacuum(1), eta_hom="0.9"),
     "eta_hom must be a number, got '0.9'"),
    (lambda: TeleporterParams(input_state=vacuum(1), eta_source=(0.9, "1")),
     r"eta_source\[1\] must be a number, got '1'"),
    (lambda: TeleporterParams(input_state=vacuum(1), epr_sq_db=(np.True_, -6.0)),
     r"epr_sq_db\[0\] must be a number, got np.True_"),
    (lambda: calibrate_losses((-5.0, -5.0, -5.0)),
     r"target_db must hold exactly two values, got \(-5.0, -5.0, -5.0\)"),
    (lambda: calibrate_losses((True, -5.0)), r"target_db\[0\] must be a number, got True"),
    (lambda: calibrate_losses(("a", "b")), r"target_db\[0\] must be a number, got 'a'"),
    (lambda: calibrate_losses(-5.0), "target_db must hold exactly two values, got -5.0"),
    (lambda: impure_squeezed_vacuum("-3", "3"), "sq_db must be a number, got '-3'"),
    (lambda: impure_squeezed_vacuum(-3.0, "3"), "antisq_db must be a number, got '3'"),
    (lambda: impure_squeezed_vacuum(False, True), "sq_db must be a number, got False"),
    (lambda: coherent_fidelity("1", 1.0), "vx must be a number, got '1'"),
    (lambda: coherent_fidelity(1.0, True), "vp must be a number, got True"),
    (lambda: output_variances_pure("1"), "r must be a number, got '1'"),
    (lambda: GridSpec.from_state(vacuum(1), pad="4"), "pad must be a number, got '4'"),
    (lambda: coherent_state(True), "alpha must be a number, got True"),
    (lambda: variance_from_db(4000.0, 0.25), "level_db 4000.0 dB overflows a float variance"),
    # the power is finite, its product with the reference is not
    (lambda: variance_from_db(3000.0, 1e10), "level_db 3000.0 dB overflows a float variance"),
    # a bound, or only the width, of the window overflows
    (lambda: GridSpec.from_state(impure_squeezed_vacuum(-3.0, 20.0), pad=1e308),
     "pad 1e\\+308 overflows a float window at the state's spread"),
    (lambda: GridSpec.from_state(impure_squeezed_vacuum(-3.0, 3.0), pad=1.5e308),
     "pad 1.5e\\+308 overflows a float window at the state's spread"),
    (lambda: run(ExperimentConfig(grid_pad=1.7e308), include_wigner=True),
     "grid_pad: pad 1.7e\\+308 overflows a float window at the state's spread"),
    # finite bounds whose width overflows, on either axis
    (lambda: GridSpec(-1e308, 1e308, -1, 1),
     r"grid x window \[-1e\+308, 1e\+308\] overflows a float width"),
    (lambda: GridSpec(-1, 1, -1e308, 1e308),
     r"grid p window \[-1e\+308, 1e\+308\] overflows a float width"),
    # e^{2r} overflows from r = 354.9 on
    (lambda: output_variances_pure(355.0), "r 355.0 overflows a float variance"),
    # the ratio underflows to 0 or overflows to inf
    (lambda: db_from_variance(1e-300, 1e300),
     re.escape("variance / reference ratio 1e-300 / 1e+300 leaves float range")),
    (lambda: db_from_variance(1e300, 1e-300),
     re.escape("variance / reference ratio 1e+300 / 1e-300 leaves float range")),
    # a PhysicsError: the power is a result; round-off in the variance of an
    # extreme squeezed state leaves it <= 0 at the squeezed phase
    (lambda: spectrum_trace(rotate(impure_squeezed_vacuum(-1000.0, 1000.0), 0, np.pi / 2),
                            n_points=4),
     "trace power is not positive at 1 of 4 phases"),
    (lambda: spectrum_trace(coherent_state(1e200 + 0j)),
     "trace power is not finite at 240 of 240 phases"),
]
_SPECIFIC_IDS = [
    "vacuum-float", "vacuum-bool", "rotate", "loss", "beamsplitter-i", "beamsplitter-j",
    "inverse_radon-cutoff-bool", "inverse_radon-cutoff-str", "inverse_radon-cutoff-complex",
    "GridSpec-n_x-str", "GridSpec-x_min-str", "rotate-phi-str", "coherent_state-str",
    "loss-eta-str", "beamsplitter-t-str", "loss-eta-complex", "loss-eta-complex64",
    "params-g_x-str", "params-g_p-bool", "params-eta_hom-str", "params-pair-str",
    "params-pair-bool", "calibrate-target-three", "calibrate-target-bool", "calibrate-target-str",
    "calibrate-target-scalar", "squeezed-vacuum-str", "squeezed-vacuum-antisq-str",
    "squeezed-vacuum-bool", "coherent_fidelity-str", "coherent_fidelity-bool",
    "output_variances_pure-str", "GridSpec-pad-str", "coherent_state-bool",
    "variance_from_db-overflow", "variance_from_db-product-overflow", "GridSpec-pad-overflow",
    "GridSpec-pad-width-overflow", "run-grid_pad-overflow", "GridSpec-x-width-overflow",
    "GridSpec-p-width-overflow", "output_variances_pure-overflow",
    "db_from_variance-ratio-underflow", "db_from_variance-ratio-overflow",
    "spectrum_trace-power-not-positive", "spectrum_trace-power-not-finite",
]

# The boundary table: for each public callable of cvteleport (and the
# GridSpec.from_state constructor), its count, number, fraction and pair
# arguments, each a call of one bad value and the rows of its class.  A row
# is (bad value, message pattern), keyed by the value's class.
_NAN, _INF = float("nan"), float("inf")
_NOT_NUMBERS = {"bool": True, "str": "1", "bytes": b"1", "None": None,
                "complex": np.complex128(1 + 5j)}
_NON_FINITE = {"nan": _NAN, "inf": _INF, "-inf": -_INF}
# integers beyond float range and the infinity each reads as
_HUGE = {"huge": (10**400, _INF), "-huge": (-(10**400), -_INF)}


def _count(label, minimum=0):
    bad = {"float": 3.0, **_NON_FINITE, **_NOT_NUMBERS}
    rows = {kind: (v, re.escape(f"{label} must be an integer, got {v!r}"))
            for kind, v in bad.items()}
    return {**rows, "below": (minimum - 1, re.escape(f"{label} must be >= {minimum}"))}


def _number(label, non_finite):
    """A real argument; ``non_finite(value)`` is the pattern NaN and +-inf raise,
    also when an integer beyond float range reads as +-inf."""
    rows = {kind: (v, re.escape(f"{label} must be a number, got {v!r}"))
            for kind, v in _NOT_NUMBERS.items()}
    rows.update({kind: (v, non_finite(v)) for kind, v in _NON_FINITE.items()})
    rows.update({kind: (v, non_finite(read)) for kind, (v, read) in _HUGE.items()})
    return rows


def _finite(label):
    return _number(label, lambda v: re.escape(f"{label} must be finite, got {v}"))


def _positive(label):
    return _number(label, lambda v: re.escape(f"{label} must be positive and finite"))


def _fraction(label):
    return _number(label, lambda v: re.escape(f"{label} must lie in [0, 1], got {v!r}"))


def _level(label, squeezer):
    """A squeezer level, whose non-finite values fail ``squeezer``'s noise-pair rule."""
    pattern = f"{squeezer} noise pair .* dB is not a valid squeezed/anti-squeezed combination"
    return _number(label, lambda v: pattern)


def _squeezer_1(label):
    return _level(label, "squeezer 1")


def _pair(label, entry, other):
    """A pair argument: its shape rows, then the rows of ``entry`` (a kind of
    the first value) beside a valid second value ``other``."""
    shapes = {"three": (0.5, 0.5, 0.5), "scalar": 0.5, "text": "12"}
    rows = {kind: (v, re.escape(f"{label} must hold exactly two values, got {v!r}"))
            for kind, v in shapes.items()}
    rows.update({f"[0]-{kind}": ((v, other), pattern)
                 for kind, (v, pattern) in entry(f"{label}[0]").items()})
    return rows


def _config(field, kind):
    """An ExperimentConfig field: the config's own label-free messages."""
    numeric = {k: (v, re.escape(f"{field}: must be numeric, got {v!r}"))
               for k, v in _NOT_NUMBERS.items()}
    if kind == "count":
        return {**numeric, "float": (3.0, re.escape(f"{field}: must be an integer")),
                "nan": (_NAN, re.escape(f"{field}: cannot convert float NaN to integer")),
                "inf": (_INF, re.escape(f"{field}: cannot convert float infinity to integer")),
                "-inf": (-_INF, re.escape(f"{field}: cannot convert float infinity to integer"))}
    non_finite = {**_NON_FINITE, **{k: v for k, (v, _) in _HUGE.items()}}
    number = {**numeric, **{k: (v, re.escape(f"{field}: must be finite"))
                            for k, v in non_finite.items()}}
    if kind == "number":
        return number
    shape = {k: (v, re.escape(f"{field}: must hold exactly two values, got {v!r}"))
             for k, v in {"three": (0.5, 0.5, 0.5), "scalar": 0.5}.items()}
    return {**shape,
            "text": ("12", re.escape(f"{field}: must be numeric, got '12'")),
            **{f"[0]-{k}": ((v, 0.9), pattern) for k, (v, pattern) in number.items()}}


def _without(rows, valid):
    """``rows`` but the row of the class ``valid``, which the argument takes."""
    return {kind: row for kind, row in rows.items() if kind != valid}


def _params(**fields):
    return TeleporterParams(input_state=vacuum(1), **fields)


_CONFIG_KINDS = {
    "number": ("alpha", "input_sq_db", "input_antisq_db", "g_x", "g_p", "eta_hom", "grid_pad",
               "cutoff"),
    "count": ("shots", "seed", "trace_points", "trace_averages", "tomo_samples", "grid_points"),
    "pair": ("epr_sq_db", "epr_antisq_db", "eta_source", "eta_prop"),
}
_BOUNDARY = {
    "vacuum": {"n_modes": (vacuum, _count("n_modes", 1))},
    "coherent_state": {"alpha": (coherent_state, _without(_number(
        "alpha", lambda v: re.escape(f"alpha must be finite, got {complex(v)}")), "complex"))},
    "impure_squeezed_vacuum": {
        "sq_db": (lambda v: impure_squeezed_vacuum(v, 3.0), _level("sq_db", "squeezed vacuum")),
        "antisq_db": (lambda v: impure_squeezed_vacuum(-3.0, v),
                      _level("antisq_db", "squeezed vacuum")),
    },
    "rotate": {"mode": (lambda v: rotate(vacuum(2), v, 0.3), _count("mode")),
               "phi": (lambda v: rotate(vacuum(1), 0, v), _finite("phi"))},
    "loss": {"mode": (lambda v: loss(vacuum(2), v, 0.5), _count("mode")),
             "eta": (lambda v: loss(vacuum(2), 0, v), _fraction("eta"))},
    "beamsplitter": {
        "mode_i": (lambda v: beamsplitter(vacuum(2), v, 1, 0.5), _count("mode_i")),
        "mode_j": (lambda v: beamsplitter(vacuum(2), 0, v, 0.5), _count("mode_j")),
        "transmittance": (lambda v: beamsplitter(vacuum(2), 0, 1, v), _fraction("transmittance")),
    },
    "db_from_variance": {
        "variance": (lambda v: db_from_variance(v, 0.25), _positive("variance")),
        "reference": (lambda v: db_from_variance(0.25, v), _positive("reference")),
    },
    "variance_from_db": {
        "level_db": (lambda v: variance_from_db(v, 0.25), _finite("level_db")),
        "reference": (lambda v: variance_from_db(-3.0, v), _positive("reference")),
    },
    "TeleporterParams": {
        "epr_sq_db": (lambda v: _params(epr_sq_db=v),
                      _pair("epr_sq_db", _squeezer_1, -6.0)),
        "epr_antisq_db": (lambda v: _params(epr_antisq_db=v),
                          _pair("epr_antisq_db", _squeezer_1, 6.0)),
        "g_x": (lambda v: _params(g_x=v), _finite("g_x")),
        "g_p": (lambda v: _params(g_p=v), _finite("g_p")),
        "eta_source": (lambda v: _params(eta_source=v), _pair("eta_source", _fraction, 0.9)),
        "eta_prop": (lambda v: _params(eta_prop=v), _pair("eta_prop", _fraction, 0.9)),
        "eta_hom": (lambda v: _params(eta_hom=v), _fraction("eta_hom")),
        "seed": (lambda v: _params(seed=v), _count("seed")),
    },
    "teleport_mc": {"shots": (lambda v: teleport_mc(_params(), v), _count("shots", 2))},
    "cascade": {"n_stages": (lambda v: cascade(_params(), v), _count("n_stages", 1))},
    "coherent_fidelity": {"vx": (lambda v: coherent_fidelity(v, 0.25), _positive("vx")),
                          "vp": (lambda v: coherent_fidelity(0.25, v), _positive("vp"))},
    "output_variances_pure": {"r": (output_variances_pure, _number("r", lambda v: re.escape(
        "r must be finite, got inf" if v == _INF else "r must be >= 0")))},
    "GridSpec": {
        "x_min": (lambda v: GridSpec(v, 1, -1, 1), _finite("x_min")),
        "x_max": (lambda v: GridSpec(-1, v, -1, 1), _finite("x_max")),
        "p_min": (lambda v: GridSpec(-1, 1, v, 1), _finite("p_min")),
        "p_max": (lambda v: GridSpec(-1, 1, -1, v), _finite("p_max")),
        "n_x": (lambda v: GridSpec(-1, 1, -1, 1, v, 5), _count("n_x", 2)),
        "n_p": (lambda v: GridSpec(-1, 1, -1, 1, 5, v), _count("n_p", 2)),
    },
    "GridSpec.from_state": {
        "n": (lambda v: GridSpec.from_state(vacuum(1), n=v), _count("n", 2)),
        "pad": (lambda v: GridSpec.from_state(vacuum(1), pad=v), _finite("pad")),
    },
    "spectrum_trace": {
        "n_points": (lambda v: spectrum_trace(vacuum(1), n_points=v), _count("n_points", 2)),
        "averages": (lambda v: spectrum_trace(vacuum(1), averages=v, rng=np.random.default_rng(0)),
                     _count("averages", 1)),
    },
    "sample_record": {"n_samples": (
        lambda v: sample_record(vacuum(1), v, np.random.default_rng(0)), _count("n_samples", 1))},
    "inverse_radon": {"filter_cutoff": (
        lambda v: _cutoff(v)(), _without(_positive("filter_cutoff"), "None"))},
    "calibrate_losses": {
        # a non-finite target fails as out of reach
        "target_db": (calibrate_losses, _pair("target_db", lambda label: _number(
            label, lambda v: r"target \S+ dB is (not )?below .*"), -5.5)),
        "source_sq_db": (lambda v: calibrate_losses((-5.6, -5.5), v),
                         _pair("source_sq_db", _squeezer_1, -6.0)),
    },
    "ExperimentConfig": {  # cutoff=None means the automatic cutoff
        field: (functools.partial(lambda field, v: ExperimentConfig(**{field: v}), field),
                _without(_config(field, kind), "None" if field == "cutoff" else None))
        for kind, names in _CONFIG_KINDS.items() for field in names
    },
    # callables with no count, number, fraction or pair argument
    **dict.fromkeys([
        "GaussianState", "PhysicsError", "apply_symplectic", "symplectic_eigenvalues", "tensor",
        "EntanglementVerdict", "SidebandPair", "delta_sq", "is_entangled",
        "sidebands_from_single_mode", "CascadeStage", "EprCorrelations", "TeleportReport",
        "epr_correlations", "make_epr", "teleport_analytic", "PhaseScanTrace",
        "QuadratureRecord", "WignerGrid", "WignerMoments", "wigner_analytic", "wigner_moments",
        "CalibrationResult", "ConfigError", "ReproRow", "RunResult", "benchmark_config",
        "emit_config", "format_repro_table", "parse_config", "run", "scenario_files",
        "write_files",
    ], {}),
}
_TABLE_ROWS, _TABLE_IDS = [], []
for _name, _arguments in _BOUNDARY.items():
    for _argument, (_call, _rows) in _arguments.items():
        for _kind, (_value, _pattern) in _rows.items():
            _TABLE_ROWS.append((functools.partial(_call, _value), _pattern))
            _TABLE_IDS.append(f"{_name}.{_argument}-{_kind}")


@pytest.mark.parametrize("call, message", _SPECIFIC_ROWS + _TABLE_ROWS,
                         ids=_SPECIFIC_IDS + _TABLE_IDS)
def test_out_of_domain_argument_is_rejected_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _exports():
    """The package's public names and objects: its ``__all__``, some of which
    it exports on first use, so they are not in ``vars(cvteleport)``."""
    return {name: getattr(cvteleport, name) for name in cvteleport.__all__}


def _public_callable(name):
    obj = cvteleport
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def test_boundary_table_covers_every_public_callable_with_arguments():
    def takes_arguments(obj):
        try:
            return bool(inspect.signature(obj).parameters)
        except ValueError:  # an exception class, which takes its message
            return True

    public = {name for name, obj in _exports().items()
              if callable(obj) and takes_arguments(obj)}
    assert public == set(_BOUNDARY) - {"GridSpec.from_state"}
    for name, arguments in _BOUNDARY.items():
        if arguments:
            obj = _public_callable(name)
            # a record's constructor takes its fields (ExperimentConfig's by keyword)
            parameters = getattr(obj, "_fields", None) or inspect.signature(obj).parameters
            assert set(arguments) <= set(parameters), name


# The records whose constructor enforces a rule: a maker, a change their
# constructor refuses with its message, and whether == and hash are by value.
_RULED_RECORDS = {
    "TeleporterParams": (lambda: TeleporterParams(coherent_state(1 + 2j), eta_prop=(0.9, 0.95)),
                         {"eta_hom": 2.0}, "eta_hom must lie in [0, 1], got 2.0", True),
    "SidebandPair": (lambda: sidebands_from_single_mode(impure_squeezed_vacuum(-3.0, 4.0)),
                     {"state": vacuum(1)}, "SidebandPair requires exactly two modes", True),
    "ExperimentConfig": (lambda: ExperimentConfig(scenario="squeezed_x", g_x=0.9),
                         {"shots": 1}, "shots: must be >= 2", True),
    "GridSpec": (lambda: GridSpec(-2, 2, -1, 3, 5, 7),
                 {"x_max": -3.0}, "grid window must have positive extent", True),
    "PhaseScanTrace": (lambda: spectrum_trace(coherent_state(0.5 + 1j), 16), {"power_db": [0.0]},
                       "thetas and power_db must be matching 1-D arrays", False),
    "QuadratureRecord": (lambda: sample_record(vacuum(1), 2000, np.random.default_rng(0)),
                         {"values": [1.0, np.nan]}, "record values must be finite", False),
    "WignerGrid": (lambda: wigner_analytic(vacuum(1), GridSpec(-2, 2, -2, 2, 5, 7)),
                   {"values": np.zeros((2, 2))}, "values shape (2, 2) does not match grid (5, 7)",
                   False),
}


def test_records_follow_one_rule():
    """A public record whose constructor enforces a rule is a `_Record`
    subclass that defines ``__init__`` and ``__slots__``, whose instances
    have no ``__dict__``; every other one is a named tuple."""
    classes = {name: obj for name, obj in _exports().items() if isinstance(obj, type)}
    records = {name: cls for name, cls in classes.items()
               if not issubclass(cls, Exception) and cls is not GaussianState}
    assert len(records) == 15
    assert {name for name, cls in records.items() if issubclass(cls, gaussian._Record)} == set(
        _RULED_RECORDS)
    for name, cls in records.items():
        if issubclass(cls, gaussian._Record):
            assert "__init__" in vars(cls) and "__slots__" in vars(cls), name
            assert cls._fields == cls.__slots__ and cls.__dictoffset__ == 0, name
        else:
            assert issubclass(cls, tuple) and hasattr(cls, "_fields"), name


def _same_field(held, copied) -> bool:
    """A copy's field holds the original's value: a state's moments, an
    array's bytes in a read-only copy, any other value itself."""
    if isinstance(held, GaussianState):
        return (held.mean.tobytes() == copied.mean.tobytes()
                and held.cov.tobytes() == copied.cov.tobytes())
    if isinstance(held, np.ndarray):
        return (copied is not held and not copied.flags.writeable and copied.dtype == held.dtype
                and copied.shape == held.shape and copied.tobytes() == held.tobytes())
    return type(copied) is type(held) and copied == held


@pytest.mark.parametrize("make, change, message, by_value", _RULED_RECORDS.values(),
                         ids=_RULED_RECORDS.keys())
def test_ruled_records_share_one_behaviour(make, change, message, by_value, monkeypatch):
    record = make()
    cls = type(record)
    assert not hasattr(record, "__dict__")
    # _replace rebuilds through the constructor, which refuses a bad value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**change)
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # == and hash: by value, or by identity for a record of arrays
    twin = copy.copy(record)
    assert record == record and hash(record) == hash(record)
    if by_value:
        assert twin == record and hash(twin) == hash(record)
        assert record._replace() == record and record != record._asdict()
    else:
        assert twin != record and hash(record) == object.__hash__(record)
    # copies and pickles rebuild through the constructor
    built, init = [], cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    for copier in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        copied = copier(record)
        assert type(copied) is cls and built[-1] is copied
        assert all(_same_field(getattr(record, name), getattr(copied, name))
                   for name in record._fields)
    assert len(built) == 3


def test_numpy_integer_modes_are_counts():
    state = vacuum(np.int64(2))
    assert rotate(state, np.int64(1), 0.3).n_modes == 2
    assert loss(state, np.int32(1), 0.5).n_modes == 2
    assert beamsplitter(state, np.int64(0), np.int64(1), 0.5).n_modes == 2


# loss's earlier form, kept as a byte oracle: np.sqrt and a list index.
def _earlier_loss(state, mode, eta):
    idx = [2 * mode, 2 * mode + 1]
    scale = np.ones(state.mean.size)
    scale[idx] = np.sqrt(eta)
    cov = state.cov * (scale[:, None] * scale)
    cov[idx[0], idx[0]] += (1.0 - eta) * VACUUM_VARIANCE
    cov[idx[1], idx[1]] += (1.0 - eta) * VACUUM_VARIANCE
    return state.mean * scale, cov


def _bytes(mean, cov):
    return mean.tobytes(), cov.tobytes()


def _state_bytes(state):
    return _bytes(state.mean, state.cov)


def test_loss_matches_its_earlier_form_byte_for_byte(rng):
    checked = 0
    for k in range(48):
        state = random_physical_state(rng, 1 + k % 3)
        for value in (0.0, 0.5, 1.0, rng.uniform(0.0, 1.0)):
            for mode in range(state.n_modes):
                expected = _bytes(*_earlier_loss(state, mode, value))
                assert _state_bytes(loss(state, mode, value)) == expected
                checked += 1
    # 16 states of each size n, with n modes
    assert checked == 16 * 4 * (1 + 2 + 3)


# _mix_moments' earlier form, kept as a byte oracle: each pair's rows mixed
# by two comprehensions, then every row's columns, pair by pair.
def _earlier_mix_moments(mean, cov, pairs, ct, st):
    for a, b in pairs:
        mean[a], mean[b] = ct * mean[a] + st * mean[b], ct * mean[b] - st * mean[a]
        row_a, row_b = cov[a], cov[b]
        cov[a] = [ct * x + st * y for x, y in zip(row_a, row_b)]
        cov[b] = [ct * y - st * x for x, y in zip(row_a, row_b)]
    for row in cov:
        for a, b in pairs:
            x, y = row[a], row[b]
            row[a], row[b] = ct * x + st * y, ct * y - st * x
    return mean, cov


def test_rotate_and_beamsplitter_match_their_earlier_kernel_byte_for_byte(rng):
    checked = 0
    for k in range(24):
        state = random_physical_state(rng, 1 + k % 4)
        held = gaussian._lists(state)
        for mode in range(state.n_modes):
            phi = rng.uniform(-np.pi, np.pi)
            expected = _earlier_mix_moments(*gaussian._lists(state), ((2 * mode, 2 * mode + 1),),
                                            math.cos(phi), -math.sin(phi))
            assert _state_bytes(rotate(state, mode, phi)) == _state_bytes(gaussian._own(*expected))
            checked += 1
            for other in range(state.n_modes):
                if other == mode:
                    continue
                t = rng.uniform(0.0, 1.0)
                pairs = ((2 * mode, 2 * other), (2 * mode + 1, 2 * other + 1))
                expected = _earlier_mix_moments(*gaussian._lists(state), pairs,
                                                math.sqrt(t), math.sqrt(1.0 - t))
                assert _state_bytes(beamsplitter(state, mode, other, t)) == _state_bytes(
                    gaussian._own(*expected))
                checked += 1
        assert gaussian._lists(state) == held  # the gates change copies only
    # 6 states of each size n, with n rotations and n (n - 1) ordered pairs
    assert checked == 6 * sum(n * n for n in range(1, 5))


def test_a_negative_zero_transmittance_mixes_as_zero():
    # sqrt(-0.0) is -0.0, which would turn zero entries into -0.0
    state = tensor(impure_squeezed_vacuum(-3.0, 5.0), coherent_state(1.5 - 0.5j))
    for i, j in ((0, 1), (1, 0)):
        assert _state_bytes(beamsplitter(state, i, j, -0.0)) == _state_bytes(
            beamsplitter(state, i, j, 0.0)
        )


@pytest.mark.parametrize("value, as_float", [
    (np.float64(0.5), 0.5), (np.float32(0.3), float(np.float32(0.3))), (1, 1.0), (np.int64(0), 0.0),
], ids=["float64", "float32", "int", "int64"])
def test_a_fraction_of_any_real_type_acts_as_its_float(value, as_float, rng):
    state = random_physical_state(rng, 2)
    assert _state_bytes(loss(state, 1, value)) == _state_bytes(loss(state, 1, as_float))
    assert _state_bytes(beamsplitter(state, 0, 1, value)) == _state_bytes(
        beamsplitter(state, 0, 1, as_float)
    )


@pytest.mark.parametrize("gate", [
    lambda value: beamsplitter(vacuum(2), 0, 1, value),
    lambda value: loss(vacuum(2), 0, value),
    lambda value: rotate(vacuum(1), 0, value),
], ids=["beamsplitter", "loss", "rotate"])
@pytest.mark.parametrize("value", [np.float32(0.3), np.float32(0.7)])
def test_a_float32_argument_acts_as_its_float_and_keeps_vacuum(gate, value):
    # in float32, the roots and the cosine would add noise to vacuum
    out = gate(value)
    assert _state_bytes(out) == _state_bytes(gate(float(value)))
    assert np.abs(out.cov - VACUUM_VARIANCE * np.eye(out.cov.shape[0])).max() <= 1e-16


@pytest.mark.parametrize("call, message", [
    (lambda: GaussianState(np.zeros(3), np.eye(3)), "mean must have even length >= 2, got 3"),
    (lambda: GaussianState(np.zeros(2), np.eye(4)),
     "cov shape (4, 4) does not match mean length 2"),
    (lambda: GaussianState(np.zeros(4), np.eye(2)),
     "cov shape (2, 2) does not match mean length 4"),
    (lambda: apply_symplectic(vacuum(1), np.eye(4)),
     "symplectic shape (4, 4) does not match state dimension"),
    (lambda: rotate(vacuum(1), 1, 0.5), "mode 1 out of range for 1 modes"),
    (lambda: loss(vacuum(2), 2, 0.5), "mode 2 out of range for 2 modes"),
], ids=["odd-mean", "cov-too-large", "cov-too-small", "symplectic-shape", "rotate-mode",
        "loss-mode"])
def test_shape_and_mode_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
