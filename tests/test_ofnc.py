"""Precision bounds and imperfection thresholds.

Frozen numbers in this file were cross-checked against independent
closed-form derivations: the rank-one distance formula
||P_u - P_w|| = sqrt(1 - |<u|w>|^2), explicit noisy-matrix products, and a
dense-grid bisection oracle.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qcontext.graphs import penalty_denominator
from qcontext import ofnc
from qcontext.interferometer import builtin_circuit, builtin_circuits, compose
from qcontext.ofnc import (
    delta_threshold,
    distance_curves,
    epsilon_bound,
    projector_distance,
)
from qcontext.states import beta_quantum_exact, builtin_measurements


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# projector distance


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_distance_matches_rank_one_formula(dim):
    # || |v><v| - |w><w| || = sqrt(1 - <v|w>^2) for real unit vectors
    rng = np.random.default_rng(dim)
    for _ in range(100):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        u = random_orthogonal(dim, rng)
        w = u.T[:, 0]
        got = projector_distance(np.outer(v, v), u)
        want = np.sqrt(max(0.0, 1.0 - (v @ w) ** 2))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_distance_agrees_with_spectral_norm():
    rng = np.random.default_rng(5)
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    u = random_orthogonal(4, rng)
    p = np.outer(v, v)
    realized = u.T[:, :1] @ u[:1, :]
    np.testing.assert_allclose(
        projector_distance(p, u), np.linalg.norm(p - realized, 2), atol=1e-12
    )


def test_distance_zero_for_matching_circuit():
    ms = builtin_measurements(5)
    for vertex, circuit in builtin_circuits(5).items():
        assert projector_distance(ms.projector(vertex), compose(circuit)) < 1e-12


def test_distance_input_validation():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        projector_distance(np.eye(2), eye)
    with pytest.raises(ValueError, match="Hermitian"):
        projector_distance(np.triu(np.ones((3, 3))), eye)
    with pytest.raises(ValueError, match="rank-one"):
        projector_distance(np.diag([1.0, 1.0, 0.0]), eye)
    with pytest.raises(ValueError, match="orthonormal"):
        projector_distance(np.diag([1.0, 0.0, 0.0]), 1.01 * eye)


# ---------------------------------------------------------------------------
# epsilon bound


def test_epsilon_bound_exact_rationals():
    b5 = epsilon_bound(beta_quantum_exact(5), 2, penalty_denominator(5))
    assert b5.epsilon == Fraction(1, 45)
    b6 = epsilon_bound(beta_quantum_exact(6), 2, penalty_denominator(6))
    assert b6.epsilon == Fraction(1, 81)
    assert isinstance(b5.epsilon, Fraction) and isinstance(b6.epsilon, Fraction)


def test_epsilon_bound_float_path():
    b = epsilon_bound(2.078, 2, 5)
    np.testing.assert_allclose(b.epsilon, 0.0156, atol=1e-12)


def test_epsilon_bound_zero_denominator():
    with pytest.raises(ValueError, match="denominator is zero"):
        epsilon_bound(Fraction(19, 9), 2, 0)


# ---------------------------------------------------------------------------
# distance curves


def sample_distance(n, vertex, delta, branch):
    ms = builtin_measurements(n)
    circuit = builtin_circuit(n, vertex)
    return projector_distance(
        ms.projector(vertex), compose(circuit, delta, dict(enumerate(branch)))
    )


def test_frozen_distance_values_n5():
    # the branch-max distance for vertex 1 reaches the epsilon bound 1/45
    # at the threshold; vertex 2's curve has unit slope there and only
    # crosses 1/45 much later (near delta = 0.0222)
    np.testing.assert_allclose(
        sample_distance(5, 1, 0.0164974, (0, 1)), 0.022222283133981516, atol=1e-15
    )
    np.testing.assert_allclose(
        sample_distance(5, 2, 0.0165, (0,)), 0.016502247133295646, atol=1e-15
    )
    np.testing.assert_allclose(
        sample_distance(5, 2, 0.005, (0,)), 0.0050000625027345966, atol=1e-15
    )


def test_vertex2_and_vertex5_curves_coincide_n5():
    for delta in (0.002, 0.01, 0.03):
        for branch in ((0,), (1,)):
            np.testing.assert_allclose(
                sample_distance(5, 2, delta, branch),
                sample_distance(5, 5, delta, branch),
                atol=1e-14,
            )


def test_vertex1_curve_even_in_first_splitter_sign():
    # flipping the 50:50 splitter's shift leaves the distance unchanged
    for delta in (0.004, 0.0165):
        for tail in (0, 1):
            np.testing.assert_allclose(
                sample_distance(5, 1, delta, (0, tail)),
                sample_distance(5, 1, delta, (1, tail)),
                atol=1e-14,
            )


def test_branch_flip_equals_delta_negation():
    for vertex in (1, 3, 5):
        circuit = builtin_circuit(6, vertex)
        k = circuit.splitter_count
        for branch in itertools.product((0, 1), repeat=k):
            flipped = tuple(1 - b for b in branch)
            np.testing.assert_allclose(
                sample_distance(6, vertex, 0.012, branch),
                sample_distance(6, vertex, -0.012, flipped),
                atol=1e-14,
            )


@pytest.mark.parametrize(
    "n, expected",
    [
        # (vertex, branch, permutation_only) with the first shift pinned to +delta
        (5, [(1, (0, 0), False), (1, (0, 1), False), (2, (0,), False),
             (3, (), True), (4, (), True), (5, (0,), False)]),
        (6, [(1, (0, 0, 0), False), (1, (0, 0, 1), False), (1, (0, 1, 0), False),
             (1, (0, 1, 1), False), (2, (), True), (3, (0, 0), False),
             (3, (0, 1), False), (4, (0,), False), (5, (0, 0), False),
             (5, (0, 1), False), (6, (), True)]),
    ],
)
def test_curve_family_layout(n, expected):
    grid = [0.0, 0.005, 0.01]
    curves = distance_curves(n, grid)
    assert [(c.vertex, c.phi_branch, c.permutation_only) for c in curves] == expected
    for c in curves:
        assert [s[0] for s in c.samples] == grid
        assert all(dist >= 0.0 for _, dist in c.samples)
        assert c.samples[0][1] < 1e-12  # no imperfection, no distance
        if c.permutation_only:
            assert all(dist < 1e-15 for _, dist in c.samples)


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_n5_at_exact_epsilon():
    result = delta_threshold(5, float(Fraction(1, 45)))
    np.testing.assert_allclose(result.delta_th, 0.0164974, atol=1e-6)
    assert result.binding_vertex == 1
    # two sign branches attain the max simultaneously
    assert result.binding_phi in {(0, 1), (1, 1)}
    assert result.epsilon_used == pytest.approx(1 / 45)
    assert result.solver_tolerance == 1e-6


def test_threshold_n5_at_experimental_epsilon():
    result = delta_threshold(5, 0.0156)
    np.testing.assert_allclose(result.delta_th, 0.0116032, atol=1e-6)
    assert result.binding_vertex == 1


def test_threshold_n6_under_unitary_noise_model():
    # with every noisy matrix kept orthogonal the N=6 network tolerates
    # roughly delta <= 0.00765 before some branch distance exceeds 1/81
    result = delta_threshold(6, float(Fraction(1, 81)))
    np.testing.assert_allclose(result.delta_th, 0.0076466, atol=1e-6)
    assert result.binding_vertex == 1
    assert result.binding_phi == (1, 1, 1)


@pytest.mark.parametrize("n, epsilon", [(5, 1 / 45), (5, 0.0156), (6, 1 / 81)])
def test_threshold_is_the_last_safe_delta(n, epsilon):
    result = delta_threshold(n, epsilon)
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)

    def worst(delta):
        out = 0.0
        for vertex, circuit in circuits.items():
            for branch in itertools.product((0, 1), repeat=circuit.splitter_count):
                out = max(
                    out,
                    projector_distance(
                        ms.projector(vertex),
                        compose(circuit, delta, dict(enumerate(branch))),
                    ),
                )
        return out

    assert worst(result.delta_th - 1e-6) <= epsilon + 1e-12
    assert worst(result.delta_th + 1e-6) > epsilon
    # the reported bracket is the bisection's final one and straddles epsilon
    lo, hi = result.bracket
    assert hi - lo <= 1e-7
    assert lo <= result.delta_th <= hi
    assert worst(lo) <= epsilon < worst(hi)
    # the 50-point probe plus one evaluation per halving of a probe step
    probe_step = min(c.delta_validity() for c in circuits.values()) / 49
    assert result.evaluations == 50 + math.ceil(math.log2(probe_step / 1e-7))


def test_threshold_epsilon_guards():
    with pytest.raises(ValueError, match="positive"):
        delta_threshold(5, 0.0)
    with pytest.raises(ValueError, match="never exceeded"):
        delta_threshold(5, 10.0)


def test_threshold_refuses_a_non_monotone_curve(monkeypatch):
    # a worst-branch curve that falls somewhere on the probe grid is not bisected
    sines = ofnc._residual_sines
    monkeypatch.setattr(ofnc, "_residual_sines", lambda *args: 1.0 - sines(*args))
    with pytest.raises(ValueError, match="not monotone on the probed grid"):
        delta_threshold(5, 1 / 45)


# ---------------------------------------------------------------------------
# the published N=6 number
#
# The vertex-1 network for N=6 as printed: the third factor carries
# sqrt(2 + 3*delta) in both off-diagonal slots, so its rows have norm^2
# 1 + 2*delta.  The library rejects such matrices, so the product is
# assembled by hand here.  Criterion 3b of test_acceptance.py reuses these
# helpers and the branch bisection below.

V1_N6 = np.array([-np.sqrt(2), 1, 1, -np.sqrt(2)]) / np.sqrt(6)


def u1_n6_printed(delta, signs):
    """The printed, normalization-breaking vertex-1 matrix for one sign branch."""
    s3 = np.sqrt(3)
    s_a, s_b, s_c = signs
    f3 = np.eye(4)
    f3[2, 2] = -np.sqrt(1 + 3 * s_a * delta) / s3
    f3[2, 3] = np.sqrt(2 + 3 * s_a * delta) / s3  # breaks normalization
    f3[3, 2] = np.sqrt(2 + 3 * s_a * delta) / s3
    f3[3, 3] = np.sqrt(1 + 3 * s_a * delta) / s3
    f2 = np.eye(4)
    f2[1, 1] = -np.sqrt(1 + 4 * s_b * delta) / 2
    f2[1, 2] = np.sqrt(3 - 4 * s_b * delta) / 2
    f2[2, 1] = np.sqrt(3 - 4 * s_b * delta) / 2
    f2[2, 2] = np.sqrt(1 + 4 * s_b * delta) / 2
    f1 = np.eye(4)
    f1[0, 0] = -np.sqrt(1 + 3 * s_c * delta) / s3
    f1[0, 1] = -np.sqrt(2 - 3 * s_c * delta) / s3
    f1[1, 0] = -np.sqrt(2 - 3 * s_c * delta) / s3
    f1[1, 1] = np.sqrt(1 + 3 * s_c * delta) / s3
    return f1 @ f2 @ f3


def printed_distance_n6(delta, signs):
    """Spectral distance of P_1 from the projector the printed matrix realizes.

    The rows are not unit vectors, so the rank-one sine does not apply; the
    distance is the largest eigenvalue magnitude of the difference.
    """
    u = u1_n6_printed(delta, signs)
    realized = u.conj().T @ np.diag([1.0, 0, 0, 0]) @ u
    return np.abs(np.linalg.eigvalsh(np.outer(V1_N6, V1_N6) - realized)).max()


def worst_branch_crossing(distance, epsilon):
    """Smallest delta in [0, 0.02], over the 8 sign branches, where distance > epsilon."""

    def crossing(signs):
        lo, hi = 0.0, 0.02
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if distance(mid, signs) <= epsilon:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return min(crossing(s) for s in itertools.product((1, -1), repeat=3))


def test_published_n6_number_comes_from_the_nonunitary_variant():
    """Reproduce 0.0049 from the normalization-breaking closed form.

    The worst sign branch of the printed (unphysical) vertex-1 matrix
    crosses 1/81 near delta = 0.00491, far below the unitary model's
    0.00765.
    """
    worst = worst_branch_crossing(printed_distance_n6, 1 / 81)
    np.testing.assert_allclose(worst, 0.004911, atol=2e-5)
