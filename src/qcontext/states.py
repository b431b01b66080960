"""Quantum states and rank-one measurement vectors for the n=5 and n=6 tests.

Every published vector is exact: its entries have the form +-sqrt(a/d) with
integers a and d.  Each vector is stored as d plus its signed integers a, so
(sqrt2, 1, 1, sqrt2)/sqrt6 is (6, (2, 1, 1, 2)), and evaluated to floating
point once.  The squared overlaps are then exact rationals that tests can
pin.  Density matrices are the input currency of `beta_value` so the
decoherence layer can reuse it on mixed states unchanged.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .graphs import build_graph, classical_bound

_HERM_TOL = 1e-10

# (d, (a_1, ..., a_dim)): the vector with entries sign(a_k) * sqrt(|a_k| / d).
_Vector = tuple[int, tuple[int, ...]]


def _exact_vectors(n: int) -> tuple[_Vector, dict[int, _Vector]]:
    if n == 5:
        eta = (3, (1, 1, 1))
        vectors = {
            1: (3, (1, -1, 1)),
            2: (2, (1, 1, 0)),
            3: (1, (0, 0, 1)),
            4: (1, (1, 0, 0)),
            5: (2, (0, 1, 1)),
        }
    elif n == 6:
        eta = (6, (2, 1, 1, 2))
        vectors = {
            1: (6, (-2, 1, 1, -2)),
            2: (1, (1, 0, 0, 0)),
            3: (4, (0, 1, 1, 2)),
            4: (2, (0, -1, 1, 0)),
            5: (4, (2, 1, 1, 0)),
            6: (1, (0, 0, 0, 1)),
        }
    else:
        raise ValueError(f"no published measurement vectors for n={n}")
    return eta, vectors


def _to_float(vec: _Vector) -> np.ndarray:
    # For every published entry, sign * sqrt(|a| / d) equals the exact closed
    # form rounded once, bit for bit; sqrt(|a|) / sqrt(d) is one ulp off for
    # some of them.
    d, squares = vec
    out = np.array([math.copysign(math.sqrt(abs(a) / d), a) for a in squares])
    out.setflags(write=False)
    return out


def _split_square(k: int) -> tuple[int, int]:
    """Write k >= 1 as c * c * m with m square-free; returns (c, m)."""
    c, m, f = 1, 1, 2
    while f * f <= k:
        while k % (f * f) == 0:
            k //= f * f
            c *= f
        if k % f == 0:
            k //= f
            m *= f
        f += 1
    return c, m * k


def _overlap(u: _Vector, v: _Vector) -> dict[int, int]:
    """Exact <u|v> * sqrt(d_u * d_v) as {m: c}: the sum of c * sqrt(m), m square-free.

    Each term sign * sqrt(|a * b|) is rewritten as c * sqrt(m) and the terms
    are summed per m; zero sums are dropped.
    """
    groups: dict[int, int] = defaultdict(int)
    for a, b in zip(u[1], v[1]):
        if a and b:
            c, m = _split_square(abs(a * b))
            groups[m] += c if a * b > 0 else -c
    return {m: c for m, c in groups.items() if c}


@dataclass(frozen=True)
class MeasurementSet:
    """State |eta> plus one unit vector per graph vertex, all real, dim d."""

    n: int
    dim: int
    state: np.ndarray
    vectors: Mapping[int, np.ndarray]

    def projector(self, vertex: int) -> np.ndarray:
        v = self.vectors[vertex]
        return np.outer(v, v.conj())

    def state_density(self) -> np.ndarray:
        return np.outer(self.state, self.state.conj())

    def as_dict(self) -> dict:
        def pairs(v: np.ndarray) -> list[list[float]]:
            return [[float(np.real(x)), float(np.imag(x))] for x in v]

        return {
            "n": self.n,
            "dim": self.dim,
            "state": pairs(self.state),
            "vectors": {str(i): pairs(v) for i, v in self.vectors.items()},
        }


@dataclass(frozen=True)
class BoundsReport:
    beta_classical: int
    beta_quantum: float
    per_vertex: dict[int, float]


@lru_cache(maxsize=None)
def builtin_measurements(n: int) -> MeasurementSet:
    """The published vector sets: d=3 for n=5, d=4 for n=6.

    The result is cached and shared, so its arrays and vector mapping are
    read-only.
    """
    eta, vectors = _exact_vectors(n)
    return MeasurementSet(
        n=n,
        dim=len(eta[1]),
        state=_to_float(eta),
        vectors=MappingProxyType({i: _to_float(v) for i, v in vectors.items()}),
    )


def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match dimension {dim}")
    if np.abs(rho - rho.conj().T).max() > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _HERM_TOL:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -_HERM_TOL:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def beta_value(ms: MeasurementSet, rho: np.ndarray) -> BoundsReport:
    """Inequality value beta = sum_i Tr(|v_i><v_i| rho) plus the classical bound."""
    rho = _check_density(rho, ms.dim)
    per_vertex = {
        i: float(np.real(v.conj() @ rho @ v)) for i, v in ms.vectors.items()
    }
    return BoundsReport(
        beta_classical=classical_bound(ms.n),
        beta_quantum=sum(per_vertex.values()),
        per_vertex=per_vertex,
    )


@lru_cache(maxsize=None)
def per_vertex_exact(n: int) -> dict[int, Fraction]:
    """Exact squared overlaps |<v_i|eta>|^2 as rationals."""
    eta, vectors = _exact_vectors(n)
    out = {}
    for i, v in vectors.items():
        terms = _overlap(v, eta)
        # square roots of distinct square-free integers are linearly
        # independent over the rationals, so only one group may survive
        if len(terms) > 1:
            text = " + ".join(f"{c}*sqrt({m})" for m, c in sorted(terms.items()))
            raise RuntimeError(
                f"overlap for vertex {i} did not reduce to a rational: "
                f"({text})**2/{v[0] * eta[0]}"
            )
        out[i] = Fraction(sum(c * c * m for m, c in terms.items()), v[0] * eta[0])
    return out


def beta_quantum_exact(n: int) -> Fraction:
    """Exact quantum value of the inequality on the built-in state."""
    return sum(per_vertex_exact(n).values(), Fraction(0))


def exclusivity_defect(ms: MeasurementSet) -> float:
    """Largest |<v_i|v_j>| over graph edges; 0 means exact exclusivity."""
    g = build_graph(ms.n)
    worst = 0.0
    for a, b in g.edges:
        worst = max(worst, abs(float(ms.vectors[a].conj() @ ms.vectors[b])))
    return worst
