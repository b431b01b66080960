"""Damping channels, qudit encodings, and noise-threshold sweeps.

Two Kraus channels (amplitude damping with rate gamma, phase damping with
rate lambda) act on the test state under three encodings: the bare qudit, a
register of log2(d) qubits (noise hits every qubit independently), and a
symmetric (Dicke-state) register of d-1 qubits.  The inequality value beta
is evaluated with the measurement projectors lifted through the encoding
isometry; population that noise pushes out of the embedded subspace simply
stops contributing.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import classical_bound, penalty_denominator
from .states import MeasurementSet

_GRID_STEP = 1e-2
_BISECT_TOL = 1e-9

AMPLITUDE = "amplitude"
PHASE = "phase"
SINGLE_QUDIT = "single_qudit"
QUBIT_REGISTER = "qubit_register"
SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class KrausChannel:
    model: str
    noise_param: float
    local_dim: int
    operators: tuple[np.ndarray, ...]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho, dtype=complex)
        for k in self.operators:
            out += k @ rho @ k.conj().T
        return out


@dataclass(frozen=True)
class Encoding:
    """Embedding of the logical qudit into its physical carrier.

    `isometry` V maps logical basis states into the physical space
    (V^dag V = identity); `n_qubits` is None for the bare qudit.
    """

    kind: str
    logical_dim: int
    n_qubits: int | None
    isometry: np.ndarray

    @property
    def physical_dim(self) -> int:
        return self.isometry.shape[0]


@dataclass(frozen=True)
class NoiseSweepPoint:
    noise_param: float
    beta: float
    epsilon_th: float


def _check_params(params: Sequence[float] | np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    bad = ~((params >= 0.0) & (params <= 1.0))
    if bad.any():
        raise ValueError(f"noise parameter must lie in [0,1], got {float(params[bad][0])}")
    return params


def _kraus_stack(model: str, d: int, params: np.ndarray) -> np.ndarray:
    """Kraus operators of `model` on a d-level system for every param, shape (P, d, d, d).

    Amplitude damping: A_k[r-k, r] = sqrt(C(r,k) (1-gamma)^(r-k) gamma^k).
    Phase damping: K_0 = diag((1-lam)^(r^2/2)), K_k[k,k] = sqrt(1 - (1-lam)^(k^2)).
    """
    p = params[:, None]
    ops = np.zeros((len(params), d, d, d))
    if model == AMPLITUDE:
        k, r = np.array([(k, r) for k in range(d) for r in range(k, d)]).T
        comb = np.array([math.comb(r, k) for k in range(d) for r in range(k, d)])
        ops[:, k, r - k, r] = np.sqrt(comb) * np.sqrt((1.0 - p) ** (r - k) * p**k)
    elif model == PHASE:
        levels = np.arange(d)
        ops[:, 0, levels, levels] = (1.0 - p) ** (levels * levels / 2.0)
        excited = levels[1:]
        ops[:, excited, excited, excited] = np.sqrt(1.0 - (1.0 - p) ** (excited * excited))
    else:
        raise ValueError(f"unknown noise model {model!r}")
    return ops


def kraus_amplitude(d: int, gamma: float) -> KrausChannel:
    """Energy loss toward |0>: level |r> decays like r independent excitations."""
    if d < 2:
        raise ValueError("need dimension d >= 2")
    gamma = float(_check_params(gamma))
    return KrausChannel(AMPLITUDE, gamma, d, tuple(_kraus_stack(AMPLITUDE, d, np.array([gamma]))[0]))


def kraus_phase(d: int, lam: float) -> KrausChannel:
    """Dephasing: coherence between |r> and |s> decays with the level distance."""
    if d < 2:
        raise ValueError("need dimension d >= 2")
    lam = float(_check_params(lam))
    return KrausChannel(PHASE, lam, d, tuple(_kraus_stack(PHASE, d, np.array([lam]))[0]))


def build_encoding(kind: str, d: int) -> Encoding:
    if d < 2:
        raise ValueError("need logical dimension d >= 2")
    if kind == SINGLE_QUDIT:
        return Encoding(kind, d, None, np.eye(d))
    if kind == QUBIT_REGISTER:
        n = d.bit_length() - 1
        if 2**n != d:
            raise ValueError(f"qubit register needs a power-of-two dimension, got d={d}")
        # |j> -> its binary digits, most-significant qubit first; in that
        # ordering the tensor basis index equals j, so V is the identity.
        return Encoding(kind, d, n, np.eye(d))
    if kind == SYMMETRIC:
        n = d - 1
        v = np.zeros((2**n, d))
        for r in range(d):
            occupied = [c for c in range(2**n) if bin(c).count("1") == r]
            for c in occupied:
                v[c, r] = 1.0 / math.sqrt(len(occupied))
        return Encoding(kind, d, n, v)
    raise ValueError(f"unknown encoding kind {kind!r}")


def _noisy_branches(
    ms: MeasurementSet, enc: Encoding, model: str, params: np.ndarray
) -> np.ndarray:
    """Unnormalized Kraus branches w_e of the noisy physical state, shape (P, E, physical_dim).

    rho(p) = sum_e |w_e><w_e|.  The bare qudit has one branch per Kraus
    operator; on a register each qubit's 2x2 operators act on that qubit's
    axis of every branch, multiplying the branches by two per qubit.
    """
    if enc.logical_dim != ms.dim:
        raise ValueError(
            f"encoding dimension {enc.logical_dim} does not match measurement set dim {ms.dim}"
        )
    psi = enc.isometry @ ms.state
    if enc.n_qubits is None:
        return _kraus_stack(model, ms.dim, params) @ psi
    local = _kraus_stack(model, 2, params)[:, :, None, None]
    w = psi.reshape(1, 1, -1)
    for q in range(enc.n_qubits):
        count, branches = w.shape[:2]
        shaped = w.reshape(count, 1, branches, 2**q, 2, 2 ** (enc.n_qubits - q - 1))
        w = (local @ shaped).reshape(len(params), 2 * branches, len(psi))
    return w


def _betas(ms: MeasurementSet, enc: Encoding, model: str, params: np.ndarray) -> np.ndarray:
    """beta = sum_e sum_i |<V v_i|w_e>|^2 for every param, shape (P,)."""
    lifted = enc.isometry @ np.array(list(ms.vectors.values())).T
    amplitudes = _noisy_branches(ms, enc, model, params) @ lifted.conj()
    return (amplitudes * amplitudes.conj()).real.sum(axis=(1, 2))


def apply_noise(
    ms: MeasurementSet, enc: Encoding, model: str, param: float
) -> np.ndarray:
    """Physical-space density matrix of the noisy test state."""
    w = _noisy_branches(ms, enc, model, _check_params([param]))[0]
    return (w.T @ w.conj()).astype(complex)


def beta_under_noise(
    ms: MeasurementSet, enc: Encoding, model: str, param: float
) -> float:
    """Inequality value with lifted projectors |V v_i><V v_i| on the noisy state."""
    return float(_betas(ms, enc, model, _check_params([param]))[0])


def noise_threshold(ms: MeasurementSet, enc: Encoding, model: str) -> float:
    """First noise level where beta falls to the classical bound.

    beta is evaluated on the grid 0, 0.01, ..., 1 in one pass, and the
    threshold is the first grid crossing, refined by bisection to a bracket
    of 1e-9.  A dip below the classical bound narrower than one grid step
    can be missed.  A non-monotone stretch of the grid curve is reported as
    a UserWarning; the threshold is still the first crossing.
    """
    beta_cl = float(classical_bound(ms.n))
    grid = np.arange(0.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)
    betas = _betas(ms, enc, model, grid)
    if betas[0] <= beta_cl:
        raise ValueError("no violation at zero noise; nothing to lose")
    if np.diff(betas).max() > 1e-9:
        warnings.warn(
            f"beta({model}, {enc.kind}) is not monotone on the probed grid; "
            "threshold taken as the first crossing",
            stacklevel=2,
        )
    below = np.flatnonzero(betas <= beta_cl)
    if len(below) == 0:
        raise ValueError("beta never reaches the classical bound on [0,1]")
    hi_idx = below[0]
    lo, hi = float(grid[hi_idx - 1]), float(grid[hi_idx])
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _betas(ms, enc, model, np.array([mid]))[0] > beta_cl:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def epsilon_th_curve(
    ms: MeasurementSet, enc: Encoding, model: str, grid: Sequence[float]
) -> list[NoiseSweepPoint]:
    """Residual OFNC precision budget epsilon_th along a noise grid.

    epsilon_th = max(0, (beta - beta_cl) / sum(k_i - 1)): the precision bound
    left once decoherence has eaten part of the violation; 0 at and beyond
    the noise threshold.
    """
    beta_cl = float(classical_bound(ms.n))
    denom = penalty_denominator(ms.n)
    params = _check_params(list(grid))
    betas = _betas(ms, enc, model, params).tolist()
    return [
        NoiseSweepPoint(param, beta, max(0.0, (beta - beta_cl) / denom))
        for param, beta in zip(params.tolist(), betas)
    ]
