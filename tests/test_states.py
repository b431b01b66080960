"""Measurement vectors: normalization, exclusivity, and the exact quantum value."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qcontext import states
from qcontext.graphs import build_graph
from qcontext.states import (
    beta_quantum_exact,
    beta_value,
    builtin_measurements,
    exclusivity_defect,
    per_vertex_exact,
)

OVERLAPS = {
    5: {1: Fraction(1, 9), 2: Fraction(2, 3), 3: Fraction(1, 3),
        4: Fraction(1, 3), 5: Fraction(2, 3)},
    6: {1: Fraction(1, 9), 2: Fraction(1, 3), 3: Fraction(2, 3),
        4: Fraction(0), 5: Fraction(2, 3), 6: Fraction(1, 3)},
}


@pytest.mark.parametrize("n", [5, 6])
def test_vectors_are_unit_norm(n):
    ms = builtin_measurements(n)
    assert ms.dim == {5: 3, 6: 4}[n]
    np.testing.assert_allclose(np.linalg.norm(ms.state), 1.0, atol=1e-15)
    for v in ms.vectors.values():
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-15)


@pytest.mark.parametrize("n", [5, 6])
def test_exclusive_pairs_are_orthogonal(n):
    ms = builtin_measurements(n)
    g = build_graph(n)
    for a, b in g.edges:
        assert abs(ms.vectors[a] @ ms.vectors[b]) < 1e-15
    assert exclusivity_defect(ms) < 1e-15


@pytest.mark.parametrize("n", [5, 6])
def test_exact_overlaps(n):
    assert per_vertex_exact(n) == OVERLAPS[n]


@pytest.mark.parametrize("n", [5, 6])
def test_beta_quantum_exact_value(n):
    assert beta_quantum_exact(n) == Fraction(19, 9)
    assert beta_quantum_exact(n) == 2 + Fraction(1, 9)


@pytest.mark.parametrize("n", [5, 6])
def test_beta_value_on_pure_state(n):
    ms = builtin_measurements(n)
    report = beta_value(ms, ms.state_density())
    assert report.beta_classical == 2
    np.testing.assert_allclose(report.beta_quantum, 19 / 9, atol=1e-12)
    for i, frac in OVERLAPS[n].items():
        np.testing.assert_allclose(report.per_vertex[i], float(frac), atol=1e-12)


def test_beta_value_is_linear_in_rho():
    # beta of a mixture equals the mixture of betas
    ms = builtin_measurements(5)
    rng = np.random.default_rng(11)
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    rho_a = np.outer(a, a)
    rho_b = ms.state_density()
    for w in (0.0, 0.3, 0.75, 1.0):
        mixed = w * rho_a + (1 - w) * rho_b
        got = beta_value(ms, mixed).beta_quantum
        want = w * beta_value(ms, rho_a).beta_quantum + (1 - w) * beta_value(
            ms, rho_b
        ).beta_quantum
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_projector_is_rank_one():
    ms = builtin_measurements(6)
    for i in range(1, 7):
        p = ms.projector(i)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-15)
        np.testing.assert_allclose(np.trace(p), 1.0, atol=1e-15)


def test_maximally_mixed_state_beta():
    # Tr(P_i / d) = 1/d per vertex, so beta = n/d
    for n, d in ((5, 3), (6, 4)):
        ms = builtin_measurements(n)
        report = beta_value(ms, np.eye(d) / d)
        np.testing.assert_allclose(report.beta_quantum, n / d, atol=1e-12)


def test_bad_density_matrices_rejected():
    ms = builtin_measurements(5)
    with pytest.raises(ValueError, match="shape"):
        beta_value(ms, np.eye(4) / 4)
    with pytest.raises(ValueError, match="Hermitian"):
        beta_value(ms, np.triu(np.ones((3, 3))) / 3)
    with pytest.raises(ValueError, match="trace"):
        beta_value(ms, np.eye(3))
    neg = np.diag([1.5, -0.5, 0.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        beta_value(ms, neg)


def test_irrational_overlap_is_reported(monkeypatch):
    # <v|eta> = (1 + sqrt3)/sqrt8: two square-free groups
    vectors = ((4, (1, 3)), {1: (2, (1, 1))})
    monkeypatch.setattr(states, "_exact_vectors", lambda n: vectors)
    with pytest.raises(RuntimeError, match="did not reduce to a rational"):
        per_vertex_exact.__wrapped__(7)


def test_builtin_measurements_are_read_only():
    # the set is cached, so a write would corrupt every later caller
    ms = builtin_measurements(6)
    with pytest.raises(ValueError, match="read-only"):
        ms.state[0] = 0.0
    for v in ms.vectors.values():
        with pytest.raises(ValueError, match="read-only"):
            v *= 2
    with pytest.raises(TypeError):
        ms.vectors[1] = np.zeros(4)
    assert builtin_measurements(6).vectors[2].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_unknown_n_rejected():
    with pytest.raises(ValueError, match="no published measurement vectors"):
        builtin_measurements(7)


def test_as_dict_shape():
    d = builtin_measurements(5).as_dict()
    assert d["n"] == 5 and d["dim"] == 3
    assert d["vectors"]["3"] == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
