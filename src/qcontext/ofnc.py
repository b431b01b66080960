"""Ontologically-faithful-noncontextuality (OFNC) precision analysis.

An OFNC model lets a measurement's classical representation differ between
contexts by at most epsilon.  Refuting all such models needs
epsilon < (beta_Q - beta_cl) / sum_i(k_i - 1), and the realized measurements
must each stay within epsilon of their ideal projector in spectral norm:
Delta_i(delta) = || P_i - U_noisy^dag |0><0| U_noisy ||.  The threshold
delta_th is the largest splitter imperfection for which every vertex, under
every sign branch of the delta shifts, keeps Delta_i <= epsilon.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .interferometer import InterferometerCircuit, PathPermutation, builtin_circuits
from .states import builtin_measurements

_PROJ_TOL = 1e-10
_BISECT_TOL = 1e-7
_PROBE_POINTS = 50


@dataclass(frozen=True)
class OfncBound:
    """The precision bound epsilon = (beta_Q - beta_cl) / denominator."""

    epsilon: float | Fraction
    beta_quantum: float | Fraction
    beta_classical: float | Fraction
    denominator: int


@dataclass(frozen=True)
class DistanceCurve:
    """Delta_i(delta) samples for one vertex and one sign branch.

    `phi_branch` holds one flag per splitter in application order (0 means
    the shift is +delta, 1 means -delta); circuits without splitters get the
    empty branch and `permutation_only=True` (their curve is identically 0).
    """

    vertex: int
    phi_branch: tuple[int, ...]
    samples: tuple[tuple[float, float], ...]
    permutation_only: bool = False


@dataclass(frozen=True)
class ThresholdResult:
    """delta_th with how it was reached.

    `solver_tolerance` is the accuracy the solver promises for delta_th;
    `bracket` is the final (lo, hi) of the bisection, the accuracy it
    achieved (hi - lo <= 1e-7, lo <= delta_th <= hi).  `evaluations` counts
    the delta values at which the worst-branch distance was computed: the
    probe grid plus one per bisection step.  The binding vertex and branch
    attain the worst distance at hi.
    """

    delta_th: float
    epsilon_used: float
    binding_vertex: int
    binding_phi: tuple[int, ...]
    solver_tolerance: float
    bracket: tuple[float, float]
    evaluations: int


def projector_distance(p_ideal: np.ndarray, u_noisy: np.ndarray) -> float:
    """Spectral distance between P_ideal and the projector realized by U_noisy.

    The realized projector is U^dag |0><0| U (the measurement clicks when the
    rotated state exits on path 0).  Validates that P_ideal is a rank-one
    projector and that U_noisy has orthonormal rows.
    """
    p = np.asarray(p_ideal)
    u = np.asarray(u_noisy)
    if p.shape != u.shape or p.shape[0] != p.shape[1]:
        raise ValueError(f"shape mismatch: projector {p.shape}, unitary {u.shape}")
    if np.abs(p - p.conj().T).max() > _PROJ_TOL:
        raise ValueError("P_ideal is not Hermitian")
    if np.abs(p @ p - p).max() > _PROJ_TOL or abs(np.trace(p).real - 1.0) > _PROJ_TOL:
        raise ValueError("P_ideal is not a rank-one projector")
    if np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() > _PROJ_TOL:
        raise ValueError("U_noisy rows are not orthonormal")
    realized = u.conj().T[:, :1] @ u[:1, :]
    return float(np.abs(np.linalg.eigvalsh(p - realized)).max())


def epsilon_bound(
    beta_q: float | Fraction, beta_cl: float | Fraction, denom: int
) -> OfncBound:
    """Bound on the OFNC precision; exact when fed exact rationals."""
    if denom == 0:
        raise ValueError(
            "penalty denominator is zero: no measurement repeats across contexts, "
            "so the faithfulness constraint is vacuous"
        )
    return OfncBound(
        epsilon=(beta_q - beta_cl) / denom,
        beta_quantum=beta_q,
        beta_classical=beta_cl,
        denominator=denom,
    )


def _branches(k: int) -> np.ndarray:
    """Every sign assignment of k splitters as a (2**k, k) array of 0/1 flags."""
    return np.array(list(itertools.product((0, 1), repeat=k)), dtype=int).reshape(2**k, k)


def _first_rows(
    circuit: InterferometerCircuit, deltas: np.ndarray, branches: np.ndarray
) -> np.ndarray:
    """First row e0^T L_m ... L_1 of every noisy cascade, shape (dim, branches, deltas).

    Row 0 of the composed matrix is all the realized projector needs, so the
    layers act on that one row, last layer first, for every sign branch and
    delta at once.  Shifted transmissions are checked and clamped as
    `compose` does.
    """
    rows = np.zeros((circuit.dim, len(branches), len(deltas)))
    rows[0] = 1.0
    signs = 1.0 - 2.0 * branches
    ordinal = circuit.splitter_count
    for layer in reversed(circuit.layers):
        if isinstance(layer, PathPermutation):
            rows = rows[list(layer.targets)]
            continue
        ordinal -= 1
        shifted = layer.transmission + signs[:, ordinal, None] * deltas
        # the initial values lie inside [0,1], so an empty delta grid passes
        low, high = shifted.min(initial=1.0), shifted.max(initial=0.0)
        if low < -1e-12 or high > 1.0 + 1e-12:
            j, i = np.argwhere((shifted < -1e-12) | (shifted > 1.0 + 1e-12))[0]
            raise ValueError(
                f"delta={deltas[i]} pushes splitter {ordinal} transmission to {shifted[j, i]}, "
                "outside [0,1]"
            )
        if low < 0.0 or high > 1.0:
            shifted = np.clip(shifted, 0.0, 1.0)
        t, r = np.sqrt(shifted), np.sqrt(1.0 - shifted)
        (s11, s12), (s21, s22) = layer.pattern
        a, b = rows[layer.mode_a], rows[layer.mode_b]
        rows[layer.mode_a], rows[layer.mode_b] = (
            s11 * t * a + s21 * r * b,
            s12 * r * a + s22 * t * b,
        )
    return rows


def _residual_sines(
    circuit: InterferometerCircuit,
    vector: np.ndarray,
    deltas: np.ndarray,
    branches: np.ndarray,
) -> np.ndarray:
    """Delta_i for every (branch, delta): the sine ||v - (u.v) u||, shape (branches, deltas).

    u is the first row of the noisy cascade.  For rank-one projectors the
    spectral distance is this sine; the orthogonal residual keeps it
    accurate near 0, where sqrt(1 - (u.v)^2) is not.
    """
    u = _first_rows(circuit, deltas, branches)
    v = vector[:, None, None]
    residual = v - (u * v).sum(axis=0) * u
    return np.sqrt((residual * residual).sum(axis=0))


def distance_curves(n: int, delta_grid: Sequence[float]) -> list[DistanceCurve]:
    """One curve per vertex and sign branch, sampled on delta_grid.

    The first splitter of each circuit is held at +delta and the remaining
    splitters enumerate both shift directions, which is the branch family
    whose curves are conventionally plotted; `delta_threshold` maximizes over
    all sign assignments regardless (flipping every sign is the same as
    negating delta).
    """
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)
    grid = [float(d) for d in delta_grid]
    deltas = np.array(grid)
    curves = []
    for vertex in sorted(circuits):
        circuit = circuits[vertex]
        k = circuit.splitter_count
        branches = _branches(k)[: 2 ** max(k - 1, 0)]
        distances = _residual_sines(circuit, ms.vectors[vertex], deltas, branches)
        for branch, row in zip(branches, distances):
            samples = tuple(zip(grid, row.tolist()))
            curves.append(
                DistanceCurve(vertex, tuple(branch.tolist()), samples, permutation_only=k == 0)
            )
    return curves


def delta_threshold(n: int, epsilon: float) -> ThresholdResult:
    """Largest delta keeping max_i,phi Delta_i(delta) at or below epsilon.

    Probes the worst-branch curve on a grid first and refuses to bisect if it
    is not monotone there.
    """
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive: without a violation there is nothing to protect")
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)
    family = [
        (vertex, circuit, ms.vectors[vertex], _branches(circuit.splitter_count))
        for vertex, circuit in sorted(circuits.items())
        if circuit.splitter_count
    ]
    labels = [(vertex, tuple(b.tolist())) for vertex, _, _, branches in family for b in branches]

    def distances(deltas: np.ndarray) -> np.ndarray:
        """Delta for every (vertex, branch) of the family, in `labels` order, per delta."""
        return np.concatenate([_residual_sines(c, v, deltas, b) for _, c, v, b in family])

    probe_hi = min(c.delta_validity() for c in circuits.values())
    grid = np.linspace(0.0, probe_hi, _PROBE_POINTS)
    probed = distances(grid)
    values = probed.max(axis=0)
    evaluations = len(grid)
    if min(np.diff(values)) < -1e-12:
        raise ValueError("max distance curve is not monotone on the probed grid; refusing to bisect")

    above = np.flatnonzero(values > epsilon)
    if not len(above):
        raise ValueError(
            f"epsilon={epsilon} is never exceeded within the valid delta range "
            f"[0, {probe_hi:.4g}]; the threshold is unbounded there"
        )
    first = above[0]
    lo = float(grid[first - 1]) if first else 0.0
    hi = float(grid[first])
    at_hi = probed[:, first]
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        at_mid = distances(np.array([mid]))[:, 0]
        evaluations += 1
        if at_mid.max() <= epsilon:
            lo = mid
        else:
            hi, at_hi = mid, at_mid
    vertex, branch = labels[int(np.argmax(at_hi))]
    return ThresholdResult(
        delta_th=0.5 * (lo + hi),
        epsilon_used=epsilon,
        binding_vertex=vertex,
        binding_phi=branch,
        solver_tolerance=1e-6,
        bracket=(lo, hi),
        evaluations=evaluations,
    )
