"""Command-line front end: reproduce thresholds, curves, and sweeps as JSON/CSV.

Subcommands:
  bounds    classical/quantum inequality values and the precision bound
  ofnc      imperfection threshold delta_th plus the distance curves
  decohere  damping sweep beta(param), epsilon_th(param), and the noise threshold
  simulate  one context of the photonic experiment, exact and sampled

Every command is deterministic given its full flag set; --format picks JSON
(the full document) or CSV (the flat table the module declares).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import decoherence, ofnc, photonic
from .graphs import classical_bound, penalty_denominator
from .interferometer import builtin_circuits
from .states import beta_quantum_exact, builtin_measurements

_ENCODINGS = {
    "qudit": decoherence.SINGLE_QUDIT,
    "qubits": decoherence.QUBIT_REGISTER,
    "symmetric": decoherence.SYMMETRIC,
}
_MODELS = {"amp": decoherence.AMPLITUDE, "phase": decoherence.PHASE}


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"grid must look like start:stop:step, got {text!r}") from None
    if step <= 0 or stop < start:
        raise ValueError(f"grid {text!r} must have positive step and stop >= start")
    return [float(x) for x in np.arange(start, stop + step / 2, step)]


def _parse_bits(text: str) -> tuple[int, ...]:
    bits = tuple(int(x) for x in text.split(","))
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"phi flags must be 0 or 1, got {text!r}")
    return bits


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_bounds(args: argparse.Namespace) -> str:
    n = args.n
    if not 5 <= n <= 12:
        raise ValueError(f"bounds supports 5 <= n <= 12, got {n}")
    beta_cl = classical_bound(n)
    denom = penalty_denominator(n)
    beta_q = epsilon = None
    if n in (5, 6):
        beta_q = float(beta_quantum_exact(n))
        epsilon = float((beta_quantum_exact(n) - beta_cl) / denom)
    doc = {
        "n": n,
        "beta_cl": beta_cl,
        "beta_q": beta_q,
        "denominator": denom,
        "epsilon": epsilon,
    }
    if args.format == "csv":
        return _to_csv(
            ["n", "beta_cl", "beta_q", "denominator", "epsilon"],
            [[n, beta_cl, beta_q, denom, epsilon]],
        )
    return _to_json(doc)


def _branch_label(branch: tuple[int, ...]) -> str:
    return "".join(str(b) for b in branch)


def cmd_ofnc(args: argparse.Namespace) -> str:
    n = args.n
    if n not in (5, 6):
        raise ValueError(f"ofnc needs n in {{5, 6}}, got {n}")
    beta_cl = classical_bound(n)
    denom = penalty_denominator(n)
    beta_q = args.beta_q if args.beta_q is not None else beta_quantum_exact(n)
    bound = ofnc.epsilon_bound(beta_q, beta_cl, denom)
    epsilon = float(bound.epsilon)
    threshold = ofnc.delta_threshold(n, epsilon)
    grid = _parse_grid(args.grid)
    curves = ofnc.distance_curves(n, grid)

    if args.format == "csv":
        rows = [
            [delta, c.vertex, _branch_label(c.phi_branch), dist]
            for c in curves
            for delta, dist in c.samples
        ]
        return _to_csv(["delta", "vertex", "phi_branch", "distance"], rows)

    doc = {
        "n": n,
        "beta_q": float(beta_q),
        "beta_cl": beta_cl,
        "denominator": denom,
        "epsilon": epsilon,
        "delta_th": threshold.delta_th,
        "binding_vertex": threshold.binding_vertex,
        "binding_phi": _branch_label(threshold.binding_phi),
        "solver_tolerance": threshold.solver_tolerance,
        "bracket": list(threshold.bracket),
        "evaluations": threshold.evaluations,
        "curves": [
            {
                "vertex": c.vertex,
                "phi_branch": _branch_label(c.phi_branch),
                "permutation_only": c.permutation_only,
                "samples": [[delta, dist] for delta, dist in c.samples],
            }
            for c in curves
        ],
    }
    return _to_json(doc)


def cmd_decohere(args: argparse.Namespace) -> str:
    n = args.n
    if n not in (5, 6):
        raise ValueError(f"decohere needs n in {{5, 6}}, got {n}")
    model = _MODELS[args.model]
    kind = _ENCODINGS[args.encoding]
    ms = builtin_measurements(n)
    enc = decoherence.build_encoding(kind, ms.dim)
    grid = _parse_grid(args.grid)
    sweep = decoherence.epsilon_th_curve(ms, enc, model, grid)

    if args.format == "csv":
        rows = [
            [model, kind, n, p.noise_param, p.beta, p.epsilon_th] for p in sweep
        ]
        return _to_csv(["model", "encoding", "n", "param", "beta", "epsilon_th"], rows)

    threshold = decoherence.noise_threshold(ms, enc, model)
    doc = {
        "model": model,
        "encoding": kind,
        "n": n,
        "threshold": threshold,
        "sweep": [
            {"param": p.noise_param, "beta": p.beta, "epsilon_th": p.epsilon_th}
            for p in sweep
        ],
    }
    return _to_json(doc)


def cmd_simulate(args: argparse.Namespace) -> str:
    n = args.n
    if n not in (5, 6):
        raise ValueError(f"simulate needs n in {{5, 6}}, got {n}")
    if args.format == "csv":
        raise ValueError("simulate emits a nested document; only --format json is supported")
    if args.shots and args.seed is None:
        raise ValueError("--seed is required when sampling (--shots > 0)")
    context = tuple(int(v) for v in args.context.split(","))
    ms = builtin_measurements(n)
    circuits = builtin_circuits(n)
    phis = None
    if args.phi is not None:
        bits = _parse_bits(args.phi)
        phis = {v: dict(enumerate(bits)) for v in context}
    schedule = photonic.make_schedule(len(context))
    run = photonic.run_context(ms, context, circuits, args.delta, phis, schedule)
    report = photonic.compatibility_check(ms, context, circuits, args.delta, schedule, phis)

    distribution = [
        {"path": path, "mask": sorted(mask), "prob": prob}
        for (path, mask), prob in sorted(
            run.outcome_distribution.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
        )
    ]
    sampled = None
    if args.shots:
        counts = photonic.sample(run, args.shots, args.seed)
        sampled = {"shots": args.shots, "seed": args.seed, "counts": counts}
    doc = {
        "n": n,
        "context": list(context),
        "delta": args.delta,
        "delays": {str(v): d for v, d in run.delays.items()},
        "distribution": distribution,
        "decoded": run.decoded,
        "violation_mass": run.decoded[photonic.VIOLATION],
        "order_invariance": {
            "orderings": len(report.orderings),
            "max_tv_distance": report.max_tv_distance,
        },
        "sampled": sampled,
    }
    return _to_json(doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcontext",
        description="Contextuality-inequality lab: bounds, precision thresholds, "
        "decoherence sweeps, and a photonic simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("bounds", help="inequality bounds and the precision budget")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ofnc", help="imperfection threshold and distance curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-q", type=float, default=None, dest="beta_q",
                   help="override the quantum value (e.g. an experimental one)")
    p.add_argument("--grid", default="0:0.025:0.0005", help="delta grid start:stop:step")
    common(p)
    p.set_defaults(func=cmd_ofnc)

    p = sub.add_parser("decohere", help="damping sweep and noise threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=sorted(_MODELS), required=True)
    p.add_argument("--encoding", choices=sorted(_ENCODINGS), required=True)
    p.add_argument("--grid", default="0:1:0.01", help="noise grid start:stop:step")
    common(p)
    p.set_defaults(func=cmd_decohere)

    p = sub.add_parser("simulate", help="run one context of the photonic experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--context", required=True, metavar="a,b,c",
                   help="ordered context; the last vertex is measured directly")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--phi", default=None, metavar="b0,b1,...",
                   help="splitter shift directions applied to every circuit")
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
