"""The exact-arithmetic and bitmask code checked against sympy and networkx.

The library computes its closed forms with integer arithmetic and its
cliques with a bitmask Bron-Kerbosch search.  These tests rebuild the same
quantities with sympy and networkx, which the package does not import, and
require identical results: bit-identical floats, equal rationals, equal
clique sets.
"""
from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qcontext
from qcontext.graphs import (
    ExclusivityGraph,
    build_graph,
    enumerate_contexts,
    independence_number,
)
from qcontext.states import builtin_measurements, per_vertex_exact


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
