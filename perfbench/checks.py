"""Output checks for every benchmark op, run outside the op's timed span.

Each check returns when the output is right and raises CheckFailed with a
one-line reason when it is not.  The references are the paper's numbers as the library reproduces
them: beta_cl = 2, sum(k_i - 1) = 9 and epsilon = 1/81 for n = 6, delta_th
for the CLI examples, and the single-qudit noise thresholds of the README.
The n = 6 delta_th reference is the library's unitary splitter model
(0.00765); the published 0.0049 is not a benchmark check.  Photonic runs
are checked against `luders_decoded`, a model of the experiment that shares
no code with `photonic.run_context`, and against beta_Q = 19/9.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from qcontext import decoherence, interferometer, ofnc, photonic, states

BETA_CL = 2
BETA_Q = 19 / 9
BRACKET_STEP = 1e-6
SIGMAS = 5.0
# Decoded probabilities of the simulator and of the reference model agree to this.
MODEL_TOLERANCE = 1e-9

# Threshold references of the CLI examples: (n, beta_q or None) -> (delta_th, tolerance).
OFNC_REFERENCE = {(5, 2.078): (0.0116, 1e-3), (6, None): (0.00765, 1e-4)}
# Single-qudit noise thresholds from the README table, to 1e-3.
QUDIT_NOISE_REFERENCE = {
    (5, decoherence.AMPLITUDE): 0.299,
    (6, decoherence.AMPLITUDE): 0.128,
    (5, decoherence.PHASE): 0.156,
    (6, decoherence.PHASE): 0.065,
}


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def worst_distance(n: int, delta: float) -> float:
    """Worst projector distance over every vertex and sign branch at `delta`."""
    ms = states.builtin_measurements(n)
    worst = 0.0
    for vertex, circuit in interferometer.builtin_circuits(n).items():
        for branch in itertools.product((0, 1), repeat=circuit.splitter_count):
            u = interferometer.compose(circuit, delta, dict(enumerate(branch)))
            worst = max(worst, ofnc.projector_distance(ms.projector(vertex), u))
    return worst


def expect_delta_bracket(n: int, epsilon: float, delta_th: float) -> None:
    below = worst_distance(n, delta_th - BRACKET_STEP)
    above = worst_distance(n, delta_th + BRACKET_STEP)
    expect(
        below <= epsilon < above,
        f"delta_th={delta_th} for n={n} does not bracket epsilon={epsilon}: "
        f"distance {below} below, {above} above",
    )


def expect_noise_bracket(ms, enc, model: str, p: float) -> None:
    below = decoherence.beta_under_noise(ms, enc, model, max(p - BRACKET_STEP, 0.0))
    above = decoherence.beta_under_noise(ms, enc, model, min(p + BRACKET_STEP, 1.0))
    expect(
        below > BETA_CL >= above,
        f"noise threshold {p} ({model}, {enc.kind}, n={ms.n}) does not bracket beta=2: "
        f"{below} below, {above} above",
    )
    reference = QUDIT_NOISE_REFERENCE.get((ms.n, model))
    if enc.kind == decoherence.SINGLE_QUDIT and reference is not None:
        expect(abs(p - reference) <= 1e-3, f"qudit {model} threshold {p} is not {reference} +- 1e-3")


def luders_decoded(ms, circuits, context, delta: float, phis) -> dict[str, float]:
    """Decoded outcome probabilities of one ordered context, from first principles.

    Each non-final vertex v is a projective measurement with the projector
    the optics realise, U_v^dag |0><0| U_v; the final vertex clicks when
    U_final sends the state to path 0.  This is what `photonic.run_context`
    simulates with path amplitudes and delay tags; the two share only
    `interferometer.compose` and the built-in state.
    """
    phis = phis or {}
    unitaries = {v: interferometer.compose(circuits[v], delta, phis.get(v)) for v in context}
    *non_final, final = context
    decoded = {f"X_{v}=1": 0.0 for v in context}
    decoded[photonic.ALL_ZERO] = decoded[photonic.VIOLATION] = 0.0
    for fired in itertools.product((0, 1), repeat=len(non_final)):
        psi = ms.state.astype(complex)
        for v, bit in zip(non_final, fired):
            u = unitaries[v]
            clicked = np.conj(u[0]) * (u[0] @ psi)
            psi = clicked if bit else psi - clicked
        mass = float(np.vdot(psi, psi).real)
        tagged = [v for v, bit in zip(non_final, fired) if bit]
        if len(tagged) >= 2:
            decoded[photonic.VIOLATION] += mass
        elif tagged:
            decoded[f"X_{tagged[0]}=1"] += mass
        else:
            on_path_0 = abs(unitaries[final][0] @ psi) ** 2
            decoded[f"X_{final}=1"] += on_path_0
            decoded[photonic.ALL_ZERO] += mass - on_path_0
    return decoded


def expect_decoded(decoded: dict[str, float], reference: dict[str, float], what: str) -> None:
    expect(abs(sum(decoded.values()) - 1.0) <= MODEL_TOLERANCE, f"{what}: decoded probabilities do not sum to 1")
    expect(decoded.keys() == reference.keys(), f"{what}: outcomes {sorted(decoded)}, not {sorted(reference)}")
    worst = max(abs(decoded[k] - reference[k]) for k in reference)
    expect(worst <= MODEL_TOLERANCE, f"{what}: decoded probabilities are {worst:.3g} from the projective model")


def model_orderings(ms, circuits, context, delta: float, phis) -> tuple[list, list[dict], float]:
    """Every ordering `compatibility_check` runs, the model's marginals of each, and their max distance."""
    context = tuple(context)
    orderings = [(*perm, context[-1]) for perm in itertools.permutations(context[:-1])]
    marginals = []
    for ordering in orderings:
        decoded = luders_decoded(ms, circuits, ordering, delta, phis)
        marginals.append({v: decoded[f"X_{v}=1"] for v in context})
    tv = max((abs(a[v] - b[v]) for a, b in itertools.combinations(marginals, 2) for v in context), default=0.0)
    return orderings, marginals, tv


def expect_order_report(ms, circuits, delta: float, phis, report) -> None:
    """A compatibility_check report matches the model on every ordering."""
    orderings, marginals, tv = model_orderings(ms, circuits, report.context, delta, phis)
    expect(list(report.orderings) == orderings, f"context {report.context}: orderings {report.orderings}")
    for ordering, got, want in zip(orderings, report.marginals, marginals):
        worst = max(abs(got[v] - want[v]) for v in want)
        expect(worst <= MODEL_TOLERANCE, f"ordering {ordering}: marginals are {worst:.3g} from the projective model")
    expect(
        abs(report.max_tv_distance - tv) <= MODEL_TOLERANCE,
        f"context {report.context}: max_tv_distance {report.max_tv_distance}, model gives {tv}",
    )


def expect_beta_near_quantum(ms, circuits, runs, delta: float, phis) -> None:
    """The exact beta of imperfect optics stays near the paper's beta_Q = 19/9.

    With every realised projector within spectral distance d of the ideal
    one, each measurement of a context moves an outcome probability by at
    most 2d, so each averaged marginal moves by at most 2 k d (k the largest
    context) and beta, a sum of n marginals, by at most 2 n k d.
    """
    phis = phis or {}
    d = max(
        ofnc.projector_distance(ms.projector(v), interferometer.compose(circuits[v], delta, phis.get(v)))
        for v in ms.vectors
    )
    k = max(len(run.context) for run in runs)
    exact = photonic.beta_from_runs(runs)
    tolerance = 2 * ms.n * k * d + MODEL_TOLERANCE
    expect(
        abs(exact - BETA_Q) <= tolerance,
        f"n={ms.n}: exact beta {exact} is more than {tolerance:.3g} from beta_Q {BETA_Q}",
    )


def expect_counts(counts: dict[str, int], shots: int) -> None:
    expect(sum(counts.values()) == shots, f"counts sum to {sum(counts.values())}, not {shots}")


def sampled_beta_sigma(runs, counts) -> float:
    """Standard deviation of the beta that beta_from_runs estimates from counts.

    Each run's clicks are multinomial over its categories; vertex v carries
    weight 1/m_v, m_v being the number of runs that contain it.
    """
    multiplicity = {}
    for run in runs:
        for v in run.context:
            multiplicity[v] = multiplicity.get(v, 0) + 1
    variance = 0.0
    for run, c in zip(runs, counts):
        clicks = sum(k for label, k in c.items() if label != photonic.NO_CLICK)
        total = sum(max(p, 0.0) for p in run.decoded.values())
        probs = {v: max(run.decoded[f"X_{v}=1"], 0.0) / total for v in run.context}
        mean = sum(probs[v] / multiplicity[v] for v in run.context)
        square = sum(probs[v] / multiplicity[v] ** 2 for v in run.context)
        variance += (square - mean * mean) / clicks
    return math.sqrt(variance)


def check_solve(inputs: dict, output: dict) -> None:
    for n, result in output["delta"].items():
        epsilon = inputs["epsilon"][n]
        expect(result.epsilon_used == epsilon, f"n={n} solved for epsilon {result.epsilon_used}, not {epsilon}")
        expect_delta_bracket(n, epsilon, result.delta_th)
    for (ms, enc, model), p in output["noise"]:
        expect_noise_bracket(ms, enc, model, p)


def check_photonic(inputs: dict, output: dict) -> None:
    for n, (runs, counts, reports, beta) in output.items():
        ms, circuits = states.builtin_measurements(n), interferometer.builtin_circuits(n)
        delta = inputs[n]["delta"]
        phis = {v: inputs[n]["branch"] for v in ms.vectors}
        for run, c, report in zip(runs, counts, reports):
            what = f"n={n} context {run.context}"
            expect_decoded(run.decoded, luders_decoded(ms, circuits, run.context, delta, phis), what)
            expect_order_report(ms, circuits, delta, phis, report)
            expect_counts(c, inputs[n]["shots"])
        expect_beta_near_quantum(ms, circuits, runs, delta, phis)
        exact = photonic.beta_from_runs(runs)
        sigma = sampled_beta_sigma(runs, counts)
        expect(
            abs(beta - exact) <= SIGMAS * sigma,
            f"n={n}: sampled beta {beta} is {abs(beta - exact) / sigma:.1f} sigma from exact {exact}",
        )


def check_cli(command: str, argv: list[str], returncode: int, stdout: str, stderr: str) -> None:
    """Check one fresh-process call; `command` is the subcommand, or "import"."""
    expect(returncode == 0, f"{command} exited {returncode}: {stderr.strip()[-200:]}")
    if command == "import":
        expect(stdout == "", "import printed output")
        return
    doc = json.loads(stdout)
    if command == "bounds":
        expect(doc["beta_cl"] == BETA_CL, f"beta_cl {doc['beta_cl']}")
        expect(doc["denominator"] == 9, f"denominator {doc['denominator']}")
        expect(abs(doc["epsilon"] - float(Fraction(1, 81))) <= 1e-15, f"epsilon {doc['epsilon']}")
        expect(abs(doc["beta_q"] - BETA_Q) <= 1e-12, f"beta_q {doc['beta_q']}")
    elif command == "ofnc":
        beta_q = float(argv[argv.index("--beta-q") + 1]) if "--beta-q" in argv else None
        reference, tolerance = OFNC_REFERENCE[(doc["n"], beta_q)]
        expect(
            abs(doc["delta_th"] - reference) <= tolerance,
            f"ofnc n={doc['n']} delta_th {doc['delta_th']} is not {reference} +- {tolerance}",
        )
        expect_delta_bracket(doc["n"], doc["epsilon"], doc["delta_th"])
    elif command == "decohere":
        ms = states.builtin_measurements(doc["n"])
        enc = decoherence.build_encoding(doc["encoding"], ms.dim)
        expect(abs(doc["sweep"][0]["beta"] - BETA_Q) <= 1e-9, f"noiseless beta {doc['sweep'][0]['beta']}")
        expect_noise_bracket(ms, enc, doc["model"], doc["threshold"])
    elif command == "simulate":
        sampled = doc["sampled"]
        shots = sampled["shots"]
        expect_counts(sampled["counts"], shots)
        ms, circuits = states.builtin_measurements(doc["n"]), interferometer.builtin_circuits(doc["n"])
        context = tuple(doc["context"])
        expect_decoded(doc["decoded"], luders_decoded(ms, circuits, context, doc["delta"], None), "simulate")
        orderings, _, tv = model_orderings(ms, circuits, context, doc["delta"], None)
        expect(doc["order_invariance"]["orderings"] == len(orderings), "orderings")
        max_tv = doc["order_invariance"]["max_tv_distance"]
        expect(abs(max_tv - tv) <= MODEL_TOLERANCE, f"simulate max_tv_distance {max_tv}, model gives {tv}")
        for label, p in doc["decoded"].items():
            freq = sampled["counts"][label] / shots
            sigma = math.sqrt(max(p, 0.0) * (1.0 - p) / shots)
            expect(abs(freq - p) <= SIGMAS * sigma + 2.0 / shots, f"{label}: sampled {freq}, exact {p}")
    else:
        raise CheckFailed(f"no check for command {command!r}")
