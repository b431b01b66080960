"""Fast library code checked against independent or earlier implementations.

The library computes its closed forms with integer arithmetic and its
cliques with a bitmask Bron-Kerbosch search.  These tests rebuild the same
quantities with sympy and networkx, which the package does not import, and
require identical results: bit-identical floats, equal rationals, equal
clique sets.

The threshold solvers evaluate whole delta and noise grids in one numpy
pass.  The per-point implementation they replaced is kept here as the
oracle: every cascade multiplied out by `compose` and measured with the
eigenvalue-based `projector_distance`, and every channel applied as
kron-lifted Kraus operators to a density matrix.
"""
from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcontext
from qcontext import decoherence, ofnc
from qcontext.decoherence import AMPLITUDE, PHASE, KrausChannel, kraus_amplitude, kraus_phase
from qcontext.graphs import (
    ExclusivityGraph,
    build_graph,
    classical_bound,
    enumerate_contexts,
    independence_number,
    penalty_denominator,
)
from qcontext.interferometer import builtin_circuits, compose
from qcontext.states import builtin_measurements, per_vertex_exact
from test_decoherence import ALL_COMBOS, REFERENCE_THRESHOLDS, encoding_for


def sympy_vectors(sp, n):
    """The published vectors as sympy closed forms."""
    r2, r3, r6 = sp.sqrt(2), sp.sqrt(3), sp.sqrt(6)
    if n == 5:
        eta = sp.Matrix([1, 1, 1]) / r3
        vectors = {
            1: sp.Matrix([1, -1, 1]) / r3,
            2: sp.Matrix([1, 1, 0]) / r2,
            3: sp.Matrix([0, 0, 1]),
            4: sp.Matrix([1, 0, 0]),
            5: sp.Matrix([0, 1, 1]) / r2,
        }
    else:
        eta = sp.Matrix([r2, 1, 1, r2]) / r6
        vectors = {
            1: sp.Matrix([-r2, 1, 1, -r2]) / r6,
            2: sp.Matrix([1, 0, 0, 0]),
            3: sp.Matrix([0, 1, 1, r2]) / 2,
            4: sp.Matrix([0, -1, 1, 0]) / r2,
            5: sp.Matrix([r2, 1, 1, 0]) / 2,
            6: sp.Matrix([0, 0, 0, 1]),
        }
    return eta, vectors


def sympy_floats(vec):
    return np.array([float(x) for x in vec], dtype=float)


@pytest.mark.parametrize("n", [5, 6])
def test_float_vectors_match_sympy_bit_for_bit(n):
    sp = pytest.importorskip("sympy")
    eta, vectors = sympy_vectors(sp, n)
    ms = builtin_measurements(n)
    # tobytes also tells 0.0 from -0.0
    assert ms.state.tobytes() == sympy_floats(eta).tobytes()
    assert ms.vectors.keys() == vectors.keys()
    for i, v in vectors.items():
        assert ms.vectors[i].tobytes() == sympy_floats(v).tobytes(), i


@pytest.mark.parametrize("n", [5, 6])
def test_exact_overlaps_match_sympy(n):
    sp = pytest.importorskip("sympy")
    eta, vectors = sympy_vectors(sp, n)
    want = {}
    for i, v in vectors.items():
        p = sp.nsimplify(sp.simplify((v.T * eta)[0, 0] ** 2), rational=True)
        assert p.is_Rational
        want[i] = Fraction(int(p.p), int(p.q))
    assert per_vertex_exact(n) == want


def networkx_graph(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(1, g.n_vertices + 1))
    out.add_edges_from(g.edges)
    return out


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    p = rng.uniform(0.1, 0.9)
    edges = {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p}
    return ExclusivityGraph(n, frozenset(edges))


ORACLE_GRAPHS = [pytest.param(build_graph(n), id=f"family-{n}") for n in range(5, 13)] + [
    pytest.param(random_graph(seed), id=f"random-{seed}") for seed in range(8)
]


@pytest.mark.parametrize("g", ORACLE_GRAPHS)
def test_cliques_match_networkx(g):
    nx = pytest.importorskip("networkx")
    graph = networkx_graph(nx, g)
    want = sorted(tuple(sorted(c)) for c in nx.find_cliques(graph))
    assert enumerate_contexts(g).contexts == tuple(want)
    alpha = max(len(c) for c in nx.find_cliques(nx.complement(graph)))
    assert independence_number(g) == alpha


def test_import_loads_neither_sympy_nor_networkx():
    src = Path(qcontext.__file__).resolve().parents[1]
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import qcontext; "
        "print(sorted(m for m in ('sympy', 'networkx') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# delta_th: per-point oracle, compose + eigvalsh for every vertex, branch and delta

ORACLE_PROBE_POINTS = 50
ORACLE_DELTA_TOL = 1e-7


def oracle_worst(n, delta):
    """(distance, vertex, branch) of the worst splitter-bearing vertex and branch at delta."""
    ms = builtin_measurements(n)
    best = (0.0, None, ())
    for vertex, circuit in builtin_circuits(n).items():
        if not circuit.splitter_count:
            continue
        for branch in itertools.product((0, 1), repeat=circuit.splitter_count):
            u = compose(circuit, delta, dict(enumerate(branch)))
            d = ofnc.projector_distance(ms.projector(vertex), u)
            if d > best[0]:
                best = (d, vertex, branch)
    return best


def oracle_delta_threshold(n, epsilon):
    """(delta_th, binding vertex at the final hi) by probe grid and bisection."""
    probe_hi = min(c.delta_validity() for c in builtin_circuits(n).values())
    grid = np.linspace(0.0, probe_hi, ORACLE_PROBE_POINTS)
    first = next(i for i, d in enumerate(grid) if oracle_worst(n, d)[0] > epsilon)
    lo, hi = (float(grid[first - 1]) if first else 0.0), float(grid[first])
    while hi - lo > ORACLE_DELTA_TOL:
        mid = 0.5 * (lo + hi)
        if oracle_worst(n, mid)[0] <= epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), oracle_worst(n, hi)[1]


def seeded_epsilons(count):
    rng = random.Random(2020)
    out = []
    for _ in range(count):
        n = rng.choice((5, 6))
        out.append((n, (rng.uniform(2.05, 19 / 9) - 2) / penalty_denominator(n)))
    return out


DELTA_CASES = [(5, 1 / 45), (5, 0.0156), (6, 1 / 81), *seeded_epsilons(5)]


@pytest.mark.parametrize("n, epsilon", DELTA_CASES)
def test_delta_threshold_matches_per_point_solver(n, epsilon):
    result = ofnc.delta_threshold(n, epsilon)
    want, vertex = oracle_delta_threshold(n, epsilon)
    assert abs(result.delta_th - want) <= 1e-9
    assert result.binding_vertex == vertex
    # the reported branch attains the worst distance (branches may tie)
    circuit = builtin_circuits(n)[vertex]
    hi = result.bracket[1]
    u = compose(circuit, hi, dict(enumerate(result.binding_phi)))
    got = ofnc.projector_distance(builtin_measurements(n).projector(vertex), u)
    assert got >= oracle_worst(n, hi)[0] - 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([5, 6]), fraction=st.floats(-1.0, 1.0))
def test_first_row_kernel_matches_compose(n, fraction):
    ms = builtin_measurements(n)
    for vertex, circuit in builtin_circuits(n).items():
        validity = circuit.delta_validity()
        delta = fraction * (validity if math.isfinite(validity) else 1.0)
        branches = ofnc._branches(circuit.splitter_count)
        got = ofnc._residual_sines(circuit, ms.vectors[vertex], np.array([delta]), branches)
        for branch, value in zip(branches.tolist(), got[:, 0]):
            u = compose(circuit, delta, dict(enumerate(branch)))
            want = ofnc.projector_distance(ms.projector(vertex), u)
            assert abs(value - want) <= 1e-12, (vertex, branch, delta)


# ---------------------------------------------------------------------------
# noise: loop-built Kraus operators, kron-lifted to the register


def oracle_kraus(model, d, p):
    ops = []
    if model == AMPLITUDE:
        for k in range(d):
            a = np.zeros((d, d))
            for r in range(k, d):
                a[r - k, r] = math.sqrt(math.comb(r, k)) * math.sqrt((1.0 - p) ** (r - k) * p**k)
            ops.append(a)
    else:
        ops.append(np.diag([(1.0 - p) ** (r * r / 2.0) for r in range(d)]))
        for k in range(1, d):
            a = np.zeros((d, d))
            a[k, k] = math.sqrt(1.0 - (1.0 - p) ** (k * k))
            ops.append(a)
    return tuple(ops)


def oracle_rho(ms, enc, model, p):
    psi = enc.isometry @ ms.state
    rho = np.outer(psi, psi.conj())
    if enc.n_qubits is None:
        return KrausChannel(model, p, ms.dim, oracle_kraus(model, ms.dim, p)).apply(rho)
    for q in range(enc.n_qubits):
        before, after = np.eye(2**q), np.eye(2 ** (enc.n_qubits - q - 1))
        lifted = tuple(np.kron(np.kron(before, k), after) for k in oracle_kraus(model, 2, p))
        rho = KrausChannel(model, p, enc.physical_dim, lifted).apply(rho)
    return rho


def oracle_beta(ms, enc, model, p):
    rho = oracle_rho(ms, enc, model, p)
    return sum(
        float(np.real((enc.isometry @ v).conj() @ rho @ (enc.isometry @ v)))
        for v in ms.vectors.values()
    )


def oracle_noise_threshold(ms, enc, model):
    beta_cl = float(classical_bound(ms.n))
    grid = np.arange(0.0, 1.0 + 0.005, 0.01)
    betas = [oracle_beta(ms, enc, model, p) for p in grid]
    first = next(i for i, b in enumerate(betas) if b <= beta_cl)
    lo, hi = float(grid[first - 1]), float(grid[first])
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if oracle_beta(ms, enc, model, mid) > beta_cl:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.filterwarnings("ignore:.*not monotone")
@pytest.mark.parametrize("case", sorted(REFERENCE_THRESHOLDS))
def test_noise_threshold_matches_per_point_solver(case):
    n, model, kind = case
    ms, enc = builtin_measurements(n), encoding_for(n, kind)
    got = decoherence.noise_threshold(ms, enc, model)
    assert abs(got - oracle_noise_threshold(ms, enc, model)) <= 1e-9


@pytest.mark.parametrize("n, model, kind", ALL_COMBOS)
@settings(max_examples=25, deadline=None)
@given(params=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_batched_beta_matches_kron_lifted_channels(n, model, kind, params):
    ms, enc = builtin_measurements(n), encoding_for(n, kind)
    betas = decoherence._betas(ms, enc, model, np.array(params))
    for p, beta in zip(params, betas):
        assert abs(beta - oracle_beta(ms, enc, model, p)) <= 1e-12
        assert abs(decoherence.beta_under_noise(ms, enc, model, p) - beta) <= 1e-12
        rho = decoherence.apply_noise(ms, enc, model, p)
        assert np.abs(rho - oracle_rho(ms, enc, model, p)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    maker=st.sampled_from([kraus_amplitude, kraus_phase]),
    d=st.integers(2, 8),
    p=st.floats(0.0, 1.0),
)
def test_kraus_channels_are_trace_preserving(maker, d, p):
    channel = maker(d, p)
    total = sum(k.conj().T @ k for k in channel.operators)
    assert np.abs(total - np.eye(d)).max() <= 1e-12
    # the closed-form stack gives the loop-built operators (numpy's and
    # Python's pow may differ in the last bits)
    for got, want in zip(channel.operators, oracle_kraus(channel.model, d, p), strict=True):
        assert np.abs(got - want).max() <= 1e-12
