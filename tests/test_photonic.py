"""Path-plus-time-delay simulation of the sequential measurement experiment."""
from __future__ import annotations

import numpy as np
import pytest

from qcontext.graphs import build_graph, enumerate_contexts
from qcontext.interferometer import builtin_circuits
from qcontext.photonic import (
    ALL_ZERO,
    NO_CLICK,
    VIOLATION,
    DelaySchedule,
    beta_from_runs,
    compatibility_check,
    decode,
    make_schedule,
    run_context,
    sample,
)
from qcontext.states import builtin_measurements


def all_contexts(n):
    return enumerate_contexts(build_graph(n)).contexts


def runs_for(n, delta=0.0):
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)
    return [run_context(ms, ctx, circuits, delta) for ctx in all_contexts(n)]


# ---------------------------------------------------------------------------
# delay schedules


def test_make_schedule_uses_powers_of_two():
    assert make_schedule(2).assignments == {1: 1}
    assert make_schedule(3).assignments == {1: 1, 2: 2}
    assert make_schedule(4).assignments == {1: 1, 2: 2, 3: 4}
    with pytest.raises(ValueError, match="at least two"):
        make_schedule(1)


def test_ambiguous_delays_rejected():
    # 3 = 1 + 2: a double click would be indistinguishable from a single one
    with pytest.raises(ValueError, match="subset sum"):
        DelaySchedule({1: 1, 2: 2, 3: 3})
    with pytest.raises(ValueError, match="subset sum"):
        DelaySchedule({1: 2, 2: 2})
    with pytest.raises(ValueError, match="positive integers"):
        DelaySchedule({1: 0})
    with pytest.raises(ValueError, match="positive integers"):
        DelaySchedule({1: 1.5})
    DelaySchedule({1: 1, 2: 2, 3: 4, 4: 8})  # fine


def test_long_schedules_check_quickly():
    # 20 powers of two: every subset sum is distinct; enumerating all
    # 2^19 subsets per delay took seconds
    DelaySchedule({slot: 2 ** (slot - 1) for slot in range(1, 21)})
    DelaySchedule({1: 3, 2: 5, 3: 7})  # no sum of two reaches 7, not superincreasing
    with pytest.raises(ValueError, match="delay 3 equals a subset sum"):
        DelaySchedule({1: 1, 2: 2, 3: 3})
    with pytest.raises(ValueError, match="delay 12 equals a subset sum"):
        DelaySchedule({1: 12, 2: 5, 3: 4, 4: 3})  # 12 = 5 + 4 + 3


def test_bind_by_slot_and_by_vertex():
    sched = make_schedule(3)
    assert sched.bind((2, 4, 6)) == {2: 1, 4: 2}
    direct = DelaySchedule({2: 5, 4: 9})
    assert direct.bind((4, 2, 6)) == {4: 9, 2: 5}
    with pytest.raises(ValueError, match="needs"):
        make_schedule(2).bind((1, 3, 4))


# ---------------------------------------------------------------------------
# exact runs


@pytest.mark.parametrize("n", [5, 6])
def test_marginals_reproduce_the_born_rule(n):
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)
    ideal = {i: float((v @ ms.state) ** 2) for i, v in ms.vectors.items()}
    for ctx in all_contexts(n):
        run = run_context(ms, ctx, circuits)
        for v in ctx:
            assert run.decoded[f"X_{v}=1"] == pytest.approx(ideal[v], abs=1e-10)
        assert run.decoded[VIOLATION] <= 1e-10
        assert sum(run.outcome_distribution.values()) == pytest.approx(1.0, abs=1e-12)


def test_edge_context_masses():
    # measuring X_1 then X_2 on the pentagon: exactly one of the exclusive
    # outcomes fires, or neither
    ms = builtin_measurements(5)
    run = run_context(ms, (1, 2), builtin_circuits(5))
    assert run.decoded["X_1=1"] == pytest.approx(1 / 9, abs=1e-12)
    assert run.decoded["X_2=1"] == pytest.approx(2 / 3, abs=1e-12)
    assert run.decoded[ALL_ZERO] == pytest.approx(2 / 9, abs=1e-12)
    assert run.decoded[VIOLATION] == pytest.approx(0.0, abs=1e-14)


def test_run_records_delays_and_context():
    run = run_context(builtin_measurements(6), (2, 4, 6), builtin_circuits(6))
    assert run.context == (2, 4, 6)
    assert run.delays == {2: 1, 4: 2}
    assert run.n == 6 and run.delta == 0.0


def test_decode_recomputes_and_checks_schedule():
    ms = builtin_measurements(5)
    sched = make_schedule(2)
    run = run_context(ms, (2, 3), builtin_circuits(5), schedule=sched)
    assert decode(run, sched) == run.decoded
    with pytest.raises(ValueError, match="not produced with this schedule"):
        decode(run, DelaySchedule({2: 7}))


def test_mask_bookkeeping_in_the_raw_distribution():
    # every (path, mask) key appears, massed or not, and sums match decoding
    run = run_context(builtin_measurements(6), (1, 3, 4), builtin_circuits(6))
    keys = set(run.outcome_distribution)
    assert len(keys) == 4 * 4  # dim x 2^(non-final)
    singles = sum(
        p for (path, mask), p in run.outcome_distribution.items() if len(mask) == 1
    )
    assert singles == pytest.approx(
        run.decoded["X_1=1"] + run.decoded["X_3=1"], abs=1e-12
    )


def test_invalid_runs_rejected():
    ms = builtin_measurements(5)
    circuits = builtin_circuits(5)
    with pytest.raises(ValueError, match="not a context"):
        run_context(ms, (1, 3), circuits)
    with pytest.raises(ValueError, match="repeats"):
        run_context(ms, (1, 1), circuits)
    with pytest.raises(ValueError, match="no circuit supplied"):
        run_context(ms, (1, 2), {1: circuits[1]})


# ---------------------------------------------------------------------------
# compatibility


@pytest.mark.parametrize("n", [5, 6])
def test_perfect_devices_are_order_invariant(n):
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)
    for ctx in all_contexts(n):
        report = compatibility_check(ms, ctx, circuits)
        assert report.max_tv_distance <= 1e-10


def test_imperfection_breaks_order_invariance():
    # with all three vectors delta-shifted the marginals become order
    # dependent; the report surfaces it instead of averaging it away
    ms = builtin_measurements(6)
    report = compatibility_check(ms, (1, 3, 4), builtin_circuits(6), delta=0.02)
    assert len(report.orderings) == 2
    assert report.max_tv_distance > 1e-4


def test_imperfection_leaks_violation_mass():
    ms = builtin_measurements(6)
    run = run_context(ms, (1, 3, 4), builtin_circuits(6), 0.02)
    assert run.decoded[VIOLATION] > 1e-7


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_per_seed():
    run = run_context(builtin_measurements(5), (1, 2), builtin_circuits(5))
    a = sample(run, 5000, seed=123)
    b = sample(run, 5000, seed=123)
    c = sample(run, 5000, seed=124)
    assert a == b
    assert a != c
    assert sum(a.values()) == 5000


def test_sampled_frequencies_track_probabilities():
    shots = 100_000
    run = run_context(builtin_measurements(5), (1, 2), builtin_circuits(5))
    counts = sample(run, shots, seed=9)
    for key, p in run.decoded.items():
        se = np.sqrt(p * (1 - p) / shots)
        assert abs(counts[key] / shots - p) <= 5 * se + 1e-12


def test_losses_become_no_clicks():
    run = run_context(builtin_measurements(5), (1, 2), builtin_circuits(5))
    counts = sample(run, 400, seed=5, loss_prob=0.999999)
    assert counts[NO_CLICK] == 400


def test_dark_counts_override_uniformly():
    run = run_context(builtin_measurements(6), (2, 4, 6), builtin_circuits(6))
    counts = sample(run, 5000, seed=6, dark_rate=0.999999)
    assert counts[NO_CLICK] == 0
    # X_4 never fires physically (its marginal is 0) but dark counts do
    assert counts["X_4=1"] > 0
    assert counts[VIOLATION] > 0


def test_sampling_guards():
    run = run_context(builtin_measurements(5), (1, 2), builtin_circuits(5))
    with pytest.raises(ValueError, match="shots"):
        sample(run, 0, seed=1)
    with pytest.raises(ValueError, match=r"\[0,1\)"):
        sample(run, 10, seed=1, loss_prob=1.0)
    with pytest.raises(ValueError, match=r"\[0,1\)"):
        sample(run, 10, seed=1, dark_rate=-0.1)


# ---------------------------------------------------------------------------
# inequality value from runs


@pytest.mark.parametrize("n", [5, 6])
def test_beta_from_exact_runs(n):
    assert beta_from_runs(runs_for(n)) == pytest.approx(2 + 1 / 9, abs=1e-10)


def test_beta_from_sampled_counts():
    shots = 200_000
    runs = runs_for(5)
    counts = [sample(r, shots, seed=50 + i) for i, r in enumerate(runs)]
    beta = beta_from_runs(runs, counts)
    # each of the 10 marginal estimates carries SE <= 0.5/sqrt(shots)
    assert abs(beta - (2 + 1 / 9)) <= 3 * 10 * 0.5 / np.sqrt(shots)


def test_no_click_shots_are_discarded():
    # context (1,2) gets hand-made counts with 10 no-clicks on 100 shots;
    # dividing by the 90 clicks reproduces the exact marginals 1/9 and 2/3,
    # dividing by all 100 shots would drag beta down by ~0.03
    runs = runs_for(5)
    counts = [{"X_1=1": 10, "X_2=1": 60, ALL_ZERO: 20, VIOLATION: 0, NO_CLICK: 10}]
    counts += [
        {key: int(round(90_000 * p)) for key, p in r.decoded.items()} | {NO_CLICK: 0}
        for r in runs[1:]
    ]
    beta = beta_from_runs(runs, counts)
    assert beta == pytest.approx(2 + 1 / 9, abs=1e-4)
    assert abs(beta - (2 + 1 / 9)) < abs((60 / 100 - 2 / 3) / 2)


def test_beta_from_runs_rejects_runs_without_clicks():
    runs = runs_for(5)
    counts = [
        {key: int(round(90_000 * p)) for key, p in r.decoded.items()} | {NO_CLICK: 0}
        for r in runs
    ]
    counts[2] = dict.fromkeys(counts[2], 0) | {NO_CLICK: 100}
    with pytest.raises(ValueError, match=r"run 2 \(context \(2, 3\)\) has no clicks"):
        beta_from_runs(runs, counts)


def test_beta_from_runs_coverage_checks():
    runs = runs_for(5)
    with pytest.raises(ValueError, match="at least one run"):
        beta_from_runs([])
    with pytest.raises(ValueError, match="appear in no run"):
        beta_from_runs(runs[:1])
    with pytest.raises(ValueError, match="mix"):
        beta_from_runs(runs + runs_for(6))
