"""One process of an in-process workload (solve_warm, photonic_shots).

    python perfbench/worker.py --workload NAME --seed N --seconds S [--trace]

Set-up time runs from the first line of this file, before numpy or qcontext
is imported (the benchmark's own modules import only the standard library),
until the first timed op may begin: import, building the inputs, and one
discarded warm-up op.  With `--seconds 0` the process stops there.
Otherwise it runs ops back to back (one client, closed loop) until their
wall time reaches S, checking each op's output outside its timed span; each
step of an op is timed on its own and corrected for the machine's speed
(see timing.py), and the op's latency is the sum.  With
`--trace` a second loop of S seconds follows with the span wrappers
installed.  The result is one JSON document on stdout.  Needs `src` on
PYTHONPATH; run.py sets it.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def run_op(workload, inputs: dict, clock: timing.CorrectedClock) -> tuple:
    """Run an op's steps; return (output or the exception raised, wall seconds, corrected seconds)."""
    results, wall, corrected = [], 0.0, 0.0
    for step in workload.steps(inputs):
        result, step_wall, scale = clock.time(attempt, step)
        wall += step_wall
        corrected += step_wall * scale
        if isinstance(result, Exception):
            return result, wall, corrected
        results.append(result)
    return workload.output(inputs, results), wall, corrected


def timed_loop(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop of ops from index 0 until their wall time reaches `seconds`."""
    clock = timing.CorrectedClock()
    loop = {"latencies": [], "wall": [], "scales": [], "failures": [], "busy": 0.0}
    index, wall_busy = 0, 0.0
    while index == 0 or wall_busy < seconds:
        inputs = workload.inputs(seed, index)
        if tracer is not None:
            tracer.op, tracer.recording = index, True
        output, wall, corrected = run_op(workload, inputs, clock)
        if tracer is not None:
            tracer.recording = False
        error = None
        if isinstance(output, Exception):
            error = "".join(traceback.format_exception(output, limit=-3))
        else:
            try:
                workload.check(inputs, output)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        wall_busy += wall
        loop["busy"] += corrected
        loop["scales"].append(corrected / wall)
        if error is None:
            loop["latencies"].append(corrected)
            loop["wall"].append(wall)
        else:
            loop["failures"].append(f"op {index}: {error}")
        index += 1
    return loop


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = workloads.IN_PROCESS[args.workload]()
    warm_inputs = workload.inputs(args.seed, -1)
    warm_output = workload.output(warm_inputs, [step() for step in workload.steps(warm_inputs)])
    setup_s = time.perf_counter() - _T0
    workload.check(warm_inputs, warm_output)

    result = {"setup_s": setup_s}
    if args.seconds > 0:
        result["untraced"] = timed_loop(workload, args.seed, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        result["traced"] = timed_loop(workload, args.seed, args.seconds, tracer)
        tracer.uninstall()
        result["names"], result["spans"] = tracer.names, tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
