"""Graph family, maximal cliques, and the exact classical bound.

The library side runs a pivoting Bron-Kerbosch search; every structural
claim here is checked against a brute-force bitmask enumeration, which is
trivially correct for the sizes in play (n <= 12, so 4096 subsets).
"""
from __future__ import annotations

import itertools

import pytest

from qcontext.graphs import (
    ContextSet,
    ExclusivityGraph,
    build_graph,
    classical_bound,
    enumerate_contexts,
    independence_number,
    ofnc_penalty_denominator,
    penalty_denominator,
)


def brute_force_independence(g: ExclusivityGraph) -> int:
    """Largest subset with no internal edge, by exhaustive enumeration."""
    best = 0
    verts = range(1, g.n_vertices + 1)
    for mask in range(1 << g.n_vertices):
        subset = [v for v in verts if mask >> (v - 1) & 1]
        if any(g.has_edge(a, b) for a, b in itertools.combinations(subset, 2)):
            continue
        best = max(best, len(subset))
    return best


def brute_force_maximal_cliques(g: ExclusivityGraph) -> list[tuple[int, ...]]:
    verts = range(1, g.n_vertices + 1)
    cliques = []
    for mask in range(1, 1 << g.n_vertices):
        subset = [v for v in verts if mask >> (v - 1) & 1]
        if not all(g.has_edge(a, b) for a, b in itertools.combinations(subset, 2)):
            continue
        extendable = any(
            all(g.has_edge(u, v) for v in subset) for u in verts if u not in subset
        )
        if not extendable:
            cliques.append(tuple(subset))
    return sorted(cliques)


# ---------------------------------------------------------------------------
# the fixed family


def test_pentagon_edges():
    g = build_graph(5)
    assert g.n_vertices == 5
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})


def test_n6_edges_and_contexts():
    g = build_graph(6)
    # blocks {2,3,4} and {4,5,6} share vertex 4; plus (2,6) and 1-{3,4,5}
    assert g.edges == frozenset(
        {(2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6), (2, 6), (1, 3), (1, 4), (1, 5)}
    )
    cs = enumerate_contexts(g)
    assert cs.contexts == ((1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 4, 6), (4, 5, 6))
    assert cs.multiplicities == {1: 2, 2: 2, 3: 2, 4: 5, 5: 2, 6: 2}


def test_n7_blocks_are_odd_split():
    g = build_graph(7)
    # odd n: V_A = {2,3,4}, V_B = {5,6,7}
    assert g.has_edge(2, 4) and g.has_edge(5, 7)
    assert not g.has_edge(4, 5)
    assert g.has_edge(2, 7)
    assert g.neighbors(1) == {3, 4, 5, 6}


@pytest.mark.parametrize("n", range(5, 13))
def test_classical_bound_is_two(n):
    g = build_graph(n)
    assert independence_number(g) == brute_force_independence(g) == 2
    assert classical_bound(n) == 2


@pytest.mark.parametrize("n", range(5, 13))
def test_contexts_match_brute_force(n):
    g = build_graph(n)
    cs = enumerate_contexts(g)
    assert cs.contexts == tuple(brute_force_maximal_cliques(g))
    # every context is a clique and every vertex appears somewhere
    assert all(k >= 1 for k in cs.multiplicities.values())
    assert sum(len(c) for c in cs.contexts) == sum(cs.multiplicities.values())


@pytest.mark.parametrize(
    "n, denom",
    [(5, 5), (6, 9), (7, 7)],
)
def test_penalty_denominators(n, denom):
    assert penalty_denominator(n) == denom


@pytest.mark.parametrize("n", range(5, 13))
def test_penalty_denominator_formula(n):
    # sum over vertices of (k_i - 1) = total context membership - vertex count
    cs = enumerate_contexts(build_graph(n))
    assert ofnc_penalty_denominator(cs) == sum(len(c) for c in cs.contexts) - n


def test_parity_labels():
    assert build_graph(7).parity == "odd"
    assert build_graph(8).parity == "even"


# ---------------------------------------------------------------------------
# generic graphs


def test_triangle_and_edgeless():
    tri = ExclusivityGraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert independence_number(tri) == 1
    assert enumerate_contexts(tri).contexts == ((1, 2, 3),)

    empty = ExclusivityGraph(4, frozenset())
    assert independence_number(empty) == 4
    assert enumerate_contexts(empty).contexts == ((1,), (2,), (3,), (4,))


def test_edge_normalization():
    g = ExclusivityGraph(3, frozenset({(2, 1), (3, 2)}))
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert g.has_edge(1, 2) and g.has_edge(2, 1)


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        ExclusivityGraph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError, match="outside vertex range"):
        ExclusivityGraph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError, match="n >= 5"):
        build_graph(4)
    with pytest.raises(ValueError, match="exact search"):
        independence_number(ExclusivityGraph(40, frozenset()))


def test_as_dict_round_trips_shape():
    g = build_graph(6)
    d = g.as_dict()
    assert d["n"] == 6
    rebuilt = ExclusivityGraph(d["n"], frozenset(tuple(e) for e in d["edges"]))
    assert rebuilt == g


def test_penalty_denominator_empty_contexts():
    cs = ContextSet(contexts=(), multiplicities={})
    assert ofnc_penalty_denominator(cs) == 0
