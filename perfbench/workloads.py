"""The benchmark's workloads: seeded inputs, one op, and its output check.

Every op has a fixed composition; the seed varies only continuous inputs
(and sampling seeds).  Letting the seed choose n or the encoding would make
op latency bimodal and the median jump between modes.

An op is a list of steps (zero-argument calls) and the output built from
their results.  The worker times each step on its own, with a calibration
between steps, and an op's latency is the sum of its steps' times; a step
should last tens of milliseconds or more for the calibration to be cheap.
Steps call the library through module attributes (`ofnc.delta_threshold`,
not a name bound at import), so the tracer's wrappers see every call.  qcontext is
imported when a workload is built, not with this module: `run.py` reads the
CLI command list without loading the library it times in fresh processes.
"""
from __future__ import annotations

import random

SHOTS = 100_000
BETA_RANGE = (2.05, 19 / 9)
DELTA_RANGE = (0.0, 0.02)
LOSS_RANGE = (0.0, 0.05)
DARK_RANGE = (0.0, 1e-3)
MAX_SPLITTERS = 3


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    """The inputs of op `index` depend on the seed and that index only."""
    return random.Random(f"{workload}:{seed}:{index}")


def cli_cycle(seed: int, cycle: int) -> list[tuple[str, list[str]]]:
    """One pass of cli_cold: (command, interpreter arguments) per fresh process.

    The calls are `import qcontext` and the README's CLI examples; only the
    sampling seed of `simulate` comes from the benchmark seed.
    """
    cli = ["-m", "qcontext.cli"]
    sim_seed = op_rng("cli_cold", seed, cycle).randrange(2**31)
    return [
        ("import", ["-c", "import qcontext"]),
        ("bounds", [*cli, "bounds", "--n", "6"]),
        ("ofnc", [*cli, "ofnc", "--n", "5", "--beta-q", "2.078"]),
        ("ofnc", [*cli, "ofnc", "--n", "6"]),
        ("decohere", [*cli, "decohere", "--n", "6", "--model", "phase", "--encoding", "symmetric"]),
        ("simulate", [*cli, "simulate", "--n", "6", "--context", "1,3,4", "--delta", "0.02",
                      "--shots", str(SHOTS), "--seed", str(sim_seed)]),
    ]


class SolveWarm:
    """Both delta thresholds at a seeded epsilon, then every noise threshold."""

    name = "solve_warm"

    def __init__(self) -> None:
        import checks
        from qcontext import decoherence, graphs, ofnc, states

        self.checks, self.decoherence, self.ofnc = checks, decoherence, ofnc
        self.denominators = {n: graphs.penalty_denominator(n) for n in (5, 6)}
        encodings = {
            5: (decoherence.SINGLE_QUDIT, decoherence.SYMMETRIC),
            6: (decoherence.SINGLE_QUDIT, decoherence.QUBIT_REGISTER, decoherence.SYMMETRIC),
        }
        self.noise_cases = []
        for n, kinds in encodings.items():
            ms = states.builtin_measurements(n)
            for kind in kinds:
                enc = decoherence.build_encoding(kind, ms.dim)
                for model in (decoherence.AMPLITUDE, decoherence.PHASE):
                    self.noise_cases.append((ms, enc, model))

    def inputs(self, seed: int, index: int) -> dict:
        rng = op_rng(self.name, seed, index)
        return {"epsilon": {n: (rng.uniform(*BETA_RANGE) - 2) / d for n, d in self.denominators.items()}}

    def steps(self, inputs: dict) -> list:
        """One step per solver call: 15-100 ms each, so each gets its own calibration."""
        deltas = [lambda n=n, eps=eps: self.ofnc.delta_threshold(n, eps) for n, eps in inputs["epsilon"].items()]
        noises = [lambda case=case: self.decoherence.noise_threshold(*case) for case in self.noise_cases]
        return deltas + noises

    def output(self, inputs: dict, results: list) -> dict:
        k = len(inputs["epsilon"])
        return {"delta": dict(zip(inputs["epsilon"], results[:k])), "noise": list(zip(self.noise_cases, results[k:]))}

    def check(self, inputs: dict, output: dict) -> None:
        self.checks.check_solve(inputs, output)


class PhotonicShots:
    """One simulated experiment each for n = 5 and n = 6, sampled and re-estimated."""

    name = "photonic_shots"

    def __init__(self) -> None:
        import checks
        from qcontext import graphs, interferometer, photonic, states

        self.checks, self.photonic = checks, photonic
        self.experiments = {
            n: (
                states.builtin_measurements(n),
                interferometer.builtin_circuits(n),
                graphs.enumerate_contexts(graphs.build_graph(n)).contexts,
            )
            for n in (5, 6)
        }

    def inputs(self, seed: int, index: int) -> dict:
        rng = op_rng(self.name, seed, index)
        out = {}
        for n, (_, _, contexts) in self.experiments.items():
            bits = [rng.randrange(2) for _ in range(MAX_SPLITTERS)]
            out[n] = {
                "delta": rng.uniform(*DELTA_RANGE),
                "branch": dict(enumerate(bits)),
                "loss": rng.uniform(*LOSS_RANGE),
                "dark": rng.uniform(*DARK_RANGE),
                "sample_seeds": [rng.randrange(2**31) for _ in contexts],
                "shots": SHOTS,
            }
        return out

    def steps(self, inputs: dict) -> list:
        """The whole op is one step of about 70 ms."""
        return [lambda: self.experiment(inputs)]

    def output(self, inputs: dict, results: list) -> dict:
        return results[0]

    def experiment(self, inputs: dict) -> dict:
        photonic = self.photonic
        out = {}
        for n, (ms, circuits, contexts) in self.experiments.items():
            p = inputs[n]
            phis = {v: p["branch"] for v in ms.vectors}
            runs, counts, reports = [], [], []
            for context, sample_seed in zip(contexts, p["sample_seeds"]):
                reports.append(photonic.compatibility_check(ms, context, circuits, p["delta"], phis=phis))
                run = photonic.run_context(ms, context, circuits, p["delta"], phis)
                runs.append(run)
                counts.append(photonic.sample(run, p["shots"], sample_seed, p["loss"], p["dark"]))
            out[n] = (runs, counts, reports, photonic.beta_from_runs(runs, counts))
        return out

    def check(self, inputs: dict, output: dict) -> None:
        self.checks.check_photonic(inputs, output)


IN_PROCESS = {cls.name: cls for cls in (SolveWarm, PhotonicShots)}
