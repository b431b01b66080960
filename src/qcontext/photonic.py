"""State-vector simulation of the path-encoded contextuality experiment.

A context C = (i_1, ..., i_f) runs as: for each non-final measurement i,
apply U_i, give the photon an extra time delay if (and only if) it sits on
path 0, then undo U_i; finally apply U_{i_f} and detect.  The accumulated
delays form a register: delay tag {i} means measurement i fired, no tag plus
exit on path 0 means the final measurement fired, no tag on another path
means every outcome was 0, and two or more tags flag an exclusivity
violation (impossible for ideal optics, possible for imperfect splitters).
Delay durations only need distinguishable subset sums, so they are abstract
integer units; a single-bit register is exactly the polarization-tag variant
of the three-path experiment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .graphs import build_graph, enumerate_contexts
from .interferometer import InterferometerCircuit, compose
from .states import MeasurementSet

ALL_ZERO = "all_zero"
VIOLATION = "violation"
NO_CLICK = "no_click"


def _outcome_key(vertex: int) -> str:
    return f"X_{vertex}=1"


@dataclass(frozen=True)
class DelaySchedule:
    """Positive integer delay units, none of which equals a subset sum of the others."""

    assignments: dict[int, int]

    def __post_init__(self) -> None:
        values = list(self.assignments.values())
        if any(not isinstance(v, int) or v <= 0 for v in values):
            raise ValueError(f"delays must be positive integers, got {values}")
        # A subset summing to v holds only delays <= v, so in ascending order
        # every such subset is made of delays already seen.
        reachable = {0}
        top = max(values, default=0)
        for v in sorted(values):
            if v in reachable:
                raise ValueError(
                    f"delay {v} equals a subset sum of the others; masks would be ambiguous"
                )
            reachable |= {s + v for s in reachable if s + v <= top}

    def bind(self, context: Sequence[int]) -> dict[int, int]:
        """Assign delays to the non-final vertices of an ordered context."""
        non_final = list(context[:-1])
        if len(self.assignments) < len(non_final):
            raise ValueError(
                f"schedule has {len(self.assignments)} delays but the context needs "
                f"{len(non_final)}"
            )
        if set(non_final) <= set(self.assignments):
            return {v: self.assignments[v] for v in non_final}
        ordered = [self.assignments[k] for k in sorted(self.assignments)]
        return {v: ordered[b] for b, v in enumerate(non_final)}


def make_schedule(context_size: int) -> DelaySchedule:
    """Powers-of-two delays for the non-final slots: every subset sum is unique."""
    if context_size < 2:
        raise ValueError("a context needs at least two measurements")
    return DelaySchedule({slot: 2 ** (slot - 1) for slot in range(1, context_size)})


@dataclass
class PhotonState:
    """Amplitudes over (path, delay mask); mask bit b belongs to mask_vertices[b]."""

    dim: int
    mask_vertices: tuple[int, ...]
    amplitudes: np.ndarray

    @classmethod
    def initial(cls, state: np.ndarray, mask_vertices: Sequence[int]) -> PhotonState:
        amp = np.zeros((len(state), 2 ** len(mask_vertices)), dtype=complex)
        amp[:, 0] = state
        return cls(len(state), tuple(mask_vertices), amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def apply_path_unitary(self, u: np.ndarray) -> None:
        self.amplitudes = u @ self.amplitudes

    def apply_controlled_delay(self, vertex: int) -> None:
        """On path 0, toggle the delay bit of `vertex` (set it, for fresh bits)."""
        bit = self.mask_vertices.index(vertex)
        flipped = np.arange(self.amplitudes.shape[1]) ^ (1 << bit)
        self.amplitudes[0] = self.amplitudes[0][flipped]

    def distribution(self) -> dict[tuple[int, frozenset[int]], float]:
        probs = np.abs(self.amplitudes) ** 2
        out = {}
        for mask_index in range(probs.shape[1]):
            members = frozenset(
                v for b, v in enumerate(self.mask_vertices) if mask_index >> b & 1
            )
            for path in range(self.dim):
                out[(path, members)] = float(probs[path, mask_index])
        return out


@dataclass(frozen=True)
class ContextRun:
    n: int
    context: tuple[int, ...]
    delta: float
    delays: dict[int, int]
    outcome_distribution: dict[tuple[int, frozenset[int]], float]
    decoded: dict[str, float]


def _decode_distribution(
    context: Sequence[int], dist: Mapping[tuple[int, frozenset[int]], float]
) -> dict[str, float]:
    final = context[-1]
    decoded = {_outcome_key(v): 0.0 for v in context}
    decoded[ALL_ZERO] = 0.0
    decoded[VIOLATION] = 0.0
    for (path, mask), prob in dist.items():
        if len(mask) >= 2:
            decoded[VIOLATION] += prob
        elif len(mask) == 1:
            decoded[_outcome_key(next(iter(mask)))] += prob
        elif path == 0:
            decoded[_outcome_key(final)] += prob
        else:
            decoded[ALL_ZERO] += prob
    return decoded


@lru_cache(maxsize=None)
def _context_sets(n: int) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(c) for c in enumerate_contexts(build_graph(n)).contexts)


def _validate_context(ms: MeasurementSet, context: Sequence[int]) -> tuple[int, ...]:
    context = tuple(int(v) for v in context)
    if len(set(context)) != len(context):
        raise ValueError(f"context {context} repeats a vertex")
    if frozenset(context) not in _context_sets(ms.n):
        raise ValueError(f"{context} is not a context of the n={ms.n} graph")
    return context


def run_context(
    ms: MeasurementSet,
    context: Sequence[int],
    circuits: Mapping[int, InterferometerCircuit],
    delta: float = 0.0,
    phis: Mapping[int, Mapping[int, int]] | None = None,
    schedule: DelaySchedule | None = None,
) -> ContextRun:
    """Simulate one ordered context; the last vertex is the final measurement.

    `phis` optionally fixes the splitter shift directions per vertex (keyed
    by vertex, then splitter ordinal).
    """
    context = _validate_context(ms, context)
    missing = [v for v in context if v not in circuits]
    if missing:
        raise ValueError(f"no circuit supplied for vertices {missing}")
    if schedule is None:
        schedule = make_schedule(len(context))
    delays = schedule.bind(context)
    phis = phis or {}

    non_final = context[:-1]
    state = PhotonState.initial(ms.state.astype(complex), non_final)
    for vertex in non_final:
        u = compose(circuits[vertex], delta, phis.get(vertex))
        state.apply_path_unitary(u)
        state.apply_controlled_delay(vertex)
        state.apply_path_unitary(u.conj().T)
    state.apply_path_unitary(compose(circuits[context[-1]], delta, phis.get(context[-1])))

    dist = state.distribution()
    return ContextRun(
        n=ms.n,
        context=context,
        delta=delta,
        delays=delays,
        outcome_distribution=dist,
        decoded=_decode_distribution(context, dist),
    )


def decode(run: ContextRun, schedule: DelaySchedule) -> dict[str, float]:
    """Re-derive outcome probabilities from the raw (path, mask) distribution."""
    if schedule.bind(run.context) != run.delays:
        raise ValueError("run was not produced with this schedule")
    return _decode_distribution(run.context, run.outcome_distribution)


@dataclass(frozen=True)
class OrderInvarianceReport:
    context: tuple[int, ...]
    orderings: tuple[tuple[int, ...], ...]
    marginals: tuple[dict[int, float], ...]
    max_tv_distance: float


def compatibility_check(
    ms: MeasurementSet,
    context: Sequence[int],
    circuits: Mapping[int, InterferometerCircuit],
    delta: float = 0.0,
    schedule: DelaySchedule | None = None,
    phis: Mapping[int, Mapping[int, int]] | None = None,
) -> OrderInvarianceReport:
    """Run every ordering of the non-final blocks and compare the marginals.

    For compatible (commuting) measurements the per-vertex marginals must not
    depend on the order; the report's max total-variation distance quantifies
    any order dependence that imperfections introduce.
    """
    context = _validate_context(ms, context)
    orderings = tuple(
        (*perm, context[-1]) for perm in itertools.permutations(context[:-1])
    ) or (context,)
    marginals = []
    for ordering in orderings:
        run = run_context(ms, ordering, circuits, delta, phis, schedule)
        marginals.append({v: run.decoded[_outcome_key(v)] for v in context})
    worst = 0.0
    for a, b in itertools.combinations(marginals, 2):
        for v in context:
            worst = max(worst, abs(a[v] - b[v]))
    return OrderInvarianceReport(context, orderings, tuple(marginals), worst)


def sample(
    run: ContextRun,
    shots: int,
    seed: int,
    loss_prob: float = 0.0,
    dark_rate: float = 0.0,
) -> dict[str, int]:
    """Finite-statistics counts from a run's decoded distribution.

    Each shot first draws an outcome, may then be lost (no-click), and a dark
    count may fire on top, replacing whatever the detector would have shown
    with a uniformly random click.  Deterministic for a fixed seed.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not (0.0 <= loss_prob < 1.0 and 0.0 <= dark_rate < 1.0):
        raise ValueError("loss_prob and dark_rate must lie in [0,1)")
    categories = [_outcome_key(v) for v in run.context] + [ALL_ZERO, VIOLATION]
    probs = np.array([run.decoded[c] for c in categories])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()

    rng = np.random.default_rng(seed)
    drawn = rng.choice(len(categories), size=shots, p=probs)
    lost = rng.random(shots) < loss_prob
    dark = rng.random(shots) < dark_rate
    dark_outcome = rng.integers(0, len(categories), size=shots)

    no_click_index = len(categories)
    final = np.where(dark, dark_outcome, np.where(lost, no_click_index, drawn))
    counts = np.bincount(final, minlength=len(categories) + 1)
    labels = categories + [NO_CLICK]
    return {label: int(c) for label, c in zip(labels, counts)}


def beta_from_runs(
    runs: Sequence[ContextRun],
    counts: Sequence[Mapping[str, int]] | None = None,
) -> float:
    """Inequality value from one run per context.

    <X_i> is averaged over every context containing i.  With `counts` (one
    sample() result per run, same order) empirical frequencies replace the
    exact marginals; no-click shots are discarded.
    """
    if not runs:
        raise ValueError("need at least one run")
    n = runs[0].n
    if any(r.n != n for r in runs):
        raise ValueError("runs mix different graph sizes")
    covered = set().union(*(r.context for r in runs))
    missing = sorted(set(range(1, n + 1)) - covered)
    if missing:
        raise ValueError(f"vertices {missing} appear in no run")

    def marginal(idx: int, vertex: int) -> float:
        if counts is None:
            return runs[idx].decoded[_outcome_key(vertex)]
        c = counts[idx]
        clicks = sum(v for k, v in c.items() if k != NO_CLICK)
        if not clicks:
            raise ValueError(f"run {idx} (context {runs[idx].context}) has no clicks")
        return c[_outcome_key(vertex)] / clicks

    beta = 0.0
    for vertex in sorted(covered):
        values = [
            marginal(i, vertex) for i, r in enumerate(runs) if vertex in r.context
        ]
        beta += sum(values) / len(values)
    return beta
