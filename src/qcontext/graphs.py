"""Exclusivity graphs for the cyclic family of contextuality inequalities.

Vertices are dichotomic measurements, edges join mutually exclusive (and
compatible) pairs, and contexts are the maximal cliques.  The family is the
pentagon for n=5 and, for n >= 6, a fixed construction with two complete
blocks V_A and V_B, an extra edge (2, n), and vertex 1 adjacent to everything
except 2 and n.  The construction keeps the independence number (the
classical bound of the inequality) pinned at 2 for every n.

Clique searches run on integer adjacency bitmasks (bit v set for neighbor
v), which is plenty for graphs of a few dozen vertices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

_EXACT_SEARCH_LIMIT = 30


@dataclass(frozen=True)
class ExclusivityGraph:
    """Undirected graph on vertices 1..n_vertices with normalized edge pairs."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            if not (1 <= a <= self.n_vertices and 1 <= b <= self.n_vertices):
                raise ValueError(f"edge ({a},{b}) outside vertex range 1..{self.n_vertices}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def parity(self) -> str:
        return "odd" if self.n_vertices % 2 else "even"

    def neighbors(self, v: int) -> set[int]:
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def as_dict(self) -> dict:
        return {"n": self.n_vertices, "edges": sorted([a, b] for a, b in self.edges)}


@dataclass(frozen=True)
class ContextSet:
    """All maximal cliques of an exclusivity graph, with per-vertex counts k_i."""

    contexts: tuple[tuple[int, ...], ...]
    multiplicities: dict[int, int]


def build_graph(n: int) -> ExclusivityGraph:
    """Build the family graph on n >= 5 vertices.

    n=5 is the plain 5-cycle 1-2-3-4-5-1.  For larger n the two complete
    blocks are V_A = {2..(n+1)/2} and V_B = {(n+1)/2+1..n} when n is odd, and
    V_A = {2..n/2+1}, V_B = {n/2+1..n} (sharing vertex n/2+1) when n is even;
    on top of those come the edge (2, n) and edges from vertex 1 to every
    vertex except 2 and n.
    """
    if n < 5:
        raise ValueError(f"family graph undefined for n={n}; need n >= 5")
    if n == 5:
        edges = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)}
        return ExclusivityGraph(5, frozenset(edges))

    if n % 2:
        block_a = range(2, (n + 1) // 2 + 1)
        block_b = range((n + 1) // 2 + 1, n + 1)
    else:
        block_a = range(2, n // 2 + 2)
        block_b = range(n // 2 + 1, n + 1)

    edges: set[tuple[int, int]] = set()
    for block in (block_a, block_b):
        edges.update(itertools.combinations(block, 2))
    edges.add((2, n))
    edges.update((1, v) for v in range(3, n))
    return ExclusivityGraph(n, frozenset(edges))


def _adjacency(g: ExclusivityGraph) -> list[int]:
    """Neighbor bitmask per vertex, indexed by vertex (index 0 unused)."""
    adj = [0] * (g.n_vertices + 1)
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adj: list[int]) -> Iterator[int]:
    """Every maximal clique once, as a vertex bitmask.

    Bron-Kerbosch with Tomita pivoting: expanding only candidates outside
    the pivot's neighborhood, with the pivot chosen to maximize that
    neighborhood, skips cliques that some other branch reports.
    """

    def expand(clique: int, cand: int, done: int) -> Iterator[int]:
        if not cand:
            if not done:
                yield clique
            return
        pivot = max(_bits(cand | done), key=lambda u: (cand & adj[u]).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            yield from expand(clique | 1 << v, cand & adj[v], done & adj[v])
            cand &= ~(1 << v)
            done |= 1 << v

    return expand(0, (1 << len(adj)) - 2, 0)


def enumerate_contexts(g: ExclusivityGraph) -> ContextSet:
    """Enumerate all maximal cliques, sorted, with multiplicities k_i."""
    cliques = sorted(tuple(_bits(c)) for c in _maximal_cliques(_adjacency(g)))
    mult = {v: 0 for v in range(1, g.n_vertices + 1)}
    for c in cliques:
        for v in c:
            mult[v] += 1
    return ContextSet(tuple(cliques), mult)


def independence_number(g: ExclusivityGraph) -> int:
    """Exact maximum-independent-set size (the classical inequality bound)."""
    if g.n_vertices > _EXACT_SEARCH_LIMIT:
        raise ValueError(
            f"exact search limited to {_EXACT_SEARCH_LIMIT} vertices, got {g.n_vertices}"
        )
    adj = _adjacency(g)
    everyone = (1 << len(adj)) - 2
    complement = [0] + [everyone & ~adj[v] & ~(1 << v) for v in range(1, len(adj))]
    return max(c.bit_count() for c in _maximal_cliques(complement))


def ofnc_penalty_denominator(cs: ContextSet) -> int:
    """Sum of (k_i - 1) over vertices: how often measurements repeat across contexts."""
    return sum(k - 1 for k in cs.multiplicities.values())


@lru_cache(maxsize=None)
def classical_bound(n: int) -> int:
    return independence_number(build_graph(n))


@lru_cache(maxsize=None)
def penalty_denominator(n: int) -> int:
    return ofnc_penalty_denominator(enumerate_contexts(build_graph(n)))
