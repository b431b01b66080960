"""Damping channels, encodings, and noise thresholds.

Reference thresholds were cross-checked against an independent superoperator
construction (matrix representation of the channel acting on vectorized
density matrices) and a 1e-4 dense-grid crossing search.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from qcontext.decoherence import (
    AMPLITUDE,
    PHASE,
    QUBIT_REGISTER,
    SINGLE_QUDIT,
    SYMMETRIC,
    apply_noise,
    beta_under_noise,
    build_encoding,
    epsilon_th_curve,
    kraus_amplitude,
    kraus_phase,
    noise_threshold,
)
from qcontext.states import MeasurementSet, builtin_measurements

ALL_COMBOS = [
    (5, AMPLITUDE, SINGLE_QUDIT),
    (5, AMPLITUDE, SYMMETRIC),
    (5, PHASE, SINGLE_QUDIT),
    (5, PHASE, SYMMETRIC),
    (6, AMPLITUDE, SINGLE_QUDIT),
    (6, AMPLITUDE, QUBIT_REGISTER),
    (6, AMPLITUDE, SYMMETRIC),
    (6, PHASE, SINGLE_QUDIT),
    (6, PHASE, QUBIT_REGISTER),
    (6, PHASE, SYMMETRIC),
]

REFERENCE_THRESHOLDS = {
    (5, AMPLITUDE, SINGLE_QUDIT): 0.2990,
    (5, AMPLITUDE, SYMMETRIC): 0.1313,
    (5, PHASE, SINGLE_QUDIT): 0.1556,
    (5, PHASE, SYMMETRIC): 0.1978,
    (6, AMPLITUDE, SINGLE_QUDIT): 0.1278,
    (6, AMPLITUDE, QUBIT_REGISTER): 0.2123,
    (6, AMPLITUDE, SYMMETRIC): 0.0579,
    (6, PHASE, SINGLE_QUDIT): 0.0651,
    (6, PHASE, QUBIT_REGISTER): 0.2792,
    (6, PHASE, SYMMETRIC): 0.1397,
}

# combos whose amplitude curve turns back up within [0,1]
RECOVERING = {
    (5, AMPLITUDE, SYMMETRIC),
    (6, AMPLITUDE, SINGLE_QUDIT),
    (6, AMPLITUDE, SYMMETRIC),
}


def encoding_for(n: int, kind: str):
    return build_encoding(kind, builtin_measurements(n).dim)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Kraus operators


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("maker", [kraus_amplitude, kraus_phase])
def test_kraus_completeness(d, maker):
    for p in np.linspace(0.0, 1.0, 11):
        ch = maker(d, p)
        total = sum(k.conj().T @ k for k in ch.operators)
        np.testing.assert_allclose(total, np.eye(d), atol=1e-10)


def test_qubit_amplitude_closed_form():
    gamma = 0.37
    ch = kraus_amplitude(2, gamma)
    np.testing.assert_allclose(ch.operators[0], [[1, 0], [0, np.sqrt(1 - gamma)]], atol=1e-15)
    np.testing.assert_allclose(ch.operators[1], [[0, np.sqrt(gamma)], [0, 0]], atol=1e-15)


def test_qubit_phase_closed_form():
    lam = 0.41
    ch = kraus_phase(2, lam)
    np.testing.assert_allclose(ch.operators[0], np.diag([1, np.sqrt(1 - lam)]), atol=1e-15)
    np.testing.assert_allclose(ch.operators[1], np.diag([0, np.sqrt(lam)]), atol=1e-15)


def test_channels_preserve_density_matrices():
    rng = np.random.default_rng(42)
    for maker in (kraus_amplitude, kraus_phase):
        for p in (0.0, 0.3, 0.9, 1.0):
            ch = maker(4, p)
            for _ in range(5):
                out = ch.apply(random_density(4, rng))
                np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
                np.testing.assert_allclose(np.trace(out).real, 1.0, atol=1e-12)
                assert np.linalg.eigvalsh(out).min() > -1e-12


def test_channels_form_a_semigroup():
    # two rounds at p1, p2 equal one round at 1 - (1-p1)(1-p2)
    rng = np.random.default_rng(7)
    rho = random_density(4, rng)
    for maker in (kraus_amplitude, kraus_phase):
        p1, p2 = 0.23, 0.41
        two_step = maker(4, p2).apply(maker(4, p1).apply(rho))
        one_step = maker(4, 1 - (1 - p1) * (1 - p2)).apply(rho)
        np.testing.assert_allclose(two_step, one_step, atol=1e-12)


def test_full_amplitude_damping_resets_to_ground():
    rng = np.random.default_rng(3)
    rho = random_density(4, rng)
    out = kraus_amplitude(4, 1.0).apply(rho)
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    np.testing.assert_allclose(out, target, atol=1e-12)


def test_full_phase_damping_kills_coherence():
    rng = np.random.default_rng(4)
    rho = random_density(4, rng)
    out = kraus_phase(4, 1.0).apply(rho)
    np.testing.assert_allclose(out, np.diag(np.diag(rho).real), atol=1e-12)


def test_kraus_input_validation():
    with pytest.raises(ValueError, match="d >= 2"):
        kraus_amplitude(1, 0.5)
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        kraus_phase(3, 1.2)
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        kraus_amplitude(3, -0.01)


# ---------------------------------------------------------------------------
# encodings


def test_qudit_and_register_isometries_are_identity():
    assert np.array_equal(build_encoding(SINGLE_QUDIT, 4).isometry, np.eye(4))
    reg = build_encoding(QUBIT_REGISTER, 4)
    assert reg.n_qubits == 2
    assert np.array_equal(reg.isometry, np.eye(4))


def test_register_uses_most_significant_qubit_first():
    # logical |2> is the bit string 10: first qubit |1>, second |0>
    reg = build_encoding(QUBIT_REGISTER, 4)
    tensor = np.kron([0.0, 1.0], [1.0, 0.0])
    np.testing.assert_allclose(reg.isometry[:, 2], tensor, atol=1e-15)


@pytest.mark.parametrize("d", [3, 4])
def test_symmetric_encoding_columns(d):
    enc = build_encoding(SYMMETRIC, d)
    assert enc.n_qubits == d - 1
    assert enc.physical_dim == 2 ** (d - 1)
    v = enc.isometry
    np.testing.assert_allclose(v.T @ v, np.eye(d), atol=1e-12)
    for r in range(d):
        ones = [c for c in range(2 ** (d - 1)) if bin(c).count("1") == r]
        column = np.zeros(2 ** (d - 1))
        column[ones] = 1.0 / np.sqrt(len(ones))
        np.testing.assert_allclose(v[:, r], column, atol=1e-15)


def test_encoding_validation():
    with pytest.raises(ValueError, match="power-of-two"):
        build_encoding(QUBIT_REGISTER, 3)
    with pytest.raises(ValueError, match="unknown encoding"):
        build_encoding("dual_rail", 4)
    with pytest.raises(ValueError, match="d >= 2"):
        build_encoding(SINGLE_QUDIT, 1)


def test_apply_noise_dimension_mismatch():
    ms = builtin_measurements(5)
    with pytest.raises(ValueError, match="does not match"):
        apply_noise(ms, build_encoding(SINGLE_QUDIT, 4), AMPLITUDE, 0.1)


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
def test_noisy_state_is_a_density_matrix(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    for p in (0.0, 0.4, 1.0):
        rho = apply_noise(ms, enc, model, p)
        assert rho.shape == (enc.physical_dim, enc.physical_dim)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


# ---------------------------------------------------------------------------
# beta under noise


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
def test_noiseless_beta_is_the_quantum_value(n, model, kind):
    ms = builtin_measurements(n)
    beta = beta_under_noise(ms, encoding_for(n, kind), model, 0.0)
    np.testing.assert_allclose(beta, 19 / 9, atol=1e-12)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("kind", [SINGLE_QUDIT, QUBIT_REGISTER, SYMMETRIC])
def test_full_amplitude_damping_beta(n, kind):
    # everything decays to the ground state, whose beta is
    # sum_i v_i[0]^2 = 11/6 for both measurement sets and any encoding
    if kind == QUBIT_REGISTER and n == 5:
        pytest.skip("d=3 has no qubit register")
    ms = builtin_measurements(n)
    beta = beta_under_noise(ms, encoding_for(n, kind), AMPLITUDE, 1.0)
    np.testing.assert_allclose(beta, 11 / 6, atol=1e-10)


def test_full_phase_damping_beta_on_the_qudit():
    # complete dephasing leaves diag(|eta_r|^2), giving 5/3 resp. 29/18
    ms5 = builtin_measurements(5)
    np.testing.assert_allclose(
        beta_under_noise(ms5, encoding_for(5, SINGLE_QUDIT), PHASE, 1.0), 5 / 3, atol=1e-10
    )
    ms6 = builtin_measurements(6)
    np.testing.assert_allclose(
        beta_under_noise(ms6, encoding_for(6, SINGLE_QUDIT), PHASE, 1.0), 29 / 18, atol=1e-10
    )


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
def test_beta_crosses_the_classical_bound_once(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    grid = np.arange(0.0, 1.0001, 0.01)
    betas = np.array([beta_under_noise(ms, enc, model, p) for p in grid])
    above = betas > 2.0
    # violation at 0, none at 1, and no re-crossing
    assert above[0] and not above[-1]
    assert np.sum(np.diff(above.astype(int)) != 0) == 1


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
def test_beta_is_non_increasing_up_to_one_half(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    grid = np.arange(0.0, 0.5001, 0.01)
    betas = np.array([beta_under_noise(ms, enc, model, p) for p in grid])
    assert np.diff(betas).max() <= 1e-9


def test_amplitude_recovery_is_real_but_stays_classical():
    # the n=6 qudit curve bottoms out near gamma = 0.66 and climbs back
    # to 11/6 at gamma = 1 without ever violating the inequality again
    ms = builtin_measurements(6)
    enc = encoding_for(6, SINGLE_QUDIT)
    grid = np.linspace(0.5, 1.0, 51)
    betas = np.array([beta_under_noise(ms, enc, AMPLITUDE, p) for p in grid])
    assert np.diff(betas).max() > 1e-4  # the increase is genuine
    assert betas[-1] == pytest.approx(11 / 6, abs=1e-10)
    assert betas.max() < 2.0
    assert betas.min() < 11 / 6 - 1e-3


# ---------------------------------------------------------------------------
# thresholds


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
def test_thresholds_match_references(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        th = noise_threshold(ms, enc, model)
    assert th == pytest.approx(REFERENCE_THRESHOLDS[(n, model, kind)], abs=5e-4)
    # bisection really pinned the crossing
    assert beta_under_noise(ms, enc, model, th - 1e-6) > 2.0
    assert beta_under_noise(ms, enc, model, th + 1e-6) < 2.0


@pytest.mark.parametrize("n, model, kind", sorted(RECOVERING))
def test_recovering_curves_surface_a_warning(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    with pytest.warns(UserWarning, match="not monotone"):
        noise_threshold(ms, enc, model)


@pytest.mark.parametrize(
    "n, model, kind",
    [c for c in ALL_COMBOS if c not in RECOVERING],
)
def test_monotone_curves_stay_silent(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        noise_threshold(ms, enc, model)


def test_threshold_against_dense_grid_oracle():
    ms = builtin_measurements(6)
    enc = encoding_for(6, SINGLE_QUDIT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        th = noise_threshold(ms, enc, PHASE)
    grid = np.arange(0.0, 0.2, 1e-4)
    betas = np.array([beta_under_noise(ms, enc, PHASE, p) for p in grid])
    first_below = grid[np.flatnonzero(betas <= 2.0)[0]]
    assert abs(th - first_below) < 1e-4


def test_no_violation_no_threshold():
    # centering the test state on vertex 6 gives beta(0) = 11/6 < 2
    ms6 = builtin_measurements(6)
    degraded = MeasurementSet(n=6, dim=4, state=ms6.vectors[6], vectors=ms6.vectors)
    with pytest.raises(ValueError, match="no violation at zero noise"):
        noise_threshold(degraded, build_encoding(SINGLE_QUDIT, 4), AMPLITUDE)


def test_no_crossing_no_threshold():
    # state and every vector on |0>, which amplitude damping leaves alone: beta = 5 throughout
    e0 = np.array([1.0, 0.0, 0.0])
    fixed = MeasurementSet(n=5, dim=3, state=e0, vectors={i: e0 for i in range(1, 6)})
    with pytest.raises(ValueError, match="never reaches the classical bound"):
        noise_threshold(fixed, build_encoding(SINGLE_QUDIT, 3), AMPLITUDE)


# ---------------------------------------------------------------------------
# epsilon_th sweeps


def test_epsilon_th_starts_at_the_precision_bound():
    ms = builtin_measurements(6)
    points = epsilon_th_curve(ms, encoding_for(6, SINGLE_QUDIT), AMPLITUDE, [0.0])
    np.testing.assert_allclose(points[0].epsilon_th, 1 / 81, atol=1e-12)
    ms5 = builtin_measurements(5)
    points5 = epsilon_th_curve(ms5, encoding_for(5, SINGLE_QUDIT), AMPLITUDE, [0.0])
    np.testing.assert_allclose(points5[0].epsilon_th, 1 / 45, atol=1e-12)


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
def test_epsilon_th_vanishes_at_and_beyond_the_threshold(n, model, kind):
    ms = builtin_measurements(n)
    enc = encoding_for(n, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        th = noise_threshold(ms, enc, model)
    grid = [th, min(1.0, th + 0.05), 1.0]
    for point in epsilon_th_curve(ms, enc, model, grid):
        assert point.epsilon_th <= 1e-9
        assert point.epsilon_th >= 0.0


def test_epsilon_th_non_increasing_on_monotone_stretch():
    ms = builtin_measurements(5)
    enc = encoding_for(5, SINGLE_QUDIT)
    grid = np.arange(0.0, 0.5001, 0.01)
    points = epsilon_th_curve(ms, enc, AMPLITUDE, grid)
    eps = [p.epsilon_th for p in points]
    assert np.diff(eps).max() <= 1e-12


def test_epsilon_th_rejects_bad_params():
    ms = builtin_measurements(5)
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        epsilon_th_curve(ms, encoding_for(5, SINGLE_QUDIT), AMPLITUDE, [0.0, 1.5])
