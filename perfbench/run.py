"""Seeded benchmark for qcontext, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, closed loop, one op at a time):
  cli_cold        each op is a fresh process: `python -c "import qcontext"` and
                  the README's CLI examples, in fixed order
  solve_warm      in-process, after import: delta_threshold for n = 5 and 6 at
                  a seeded epsilon, and every noise_threshold
  photonic_shots  in-process: one full simulated experiment for n = 5 and 6,
                  sampled with 1e5 shots per context

Run from the repository root; the library is imported from `src/`.  Every
op's output is checked outside its timed span.  With `--trace 0` the last
line of stdout is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-module metrics from span wrappers, and the raw
spans and import table go to perfbench/out/.  Lines before it give the
environment and a readable table.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import timing
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 150
# Calibration passes around each fresh process, which takes about a second.
PROCESS_CALIBRATION_PASSES = 3
CLI_CYCLE = len(workloads.cli_cycle(0, 0))
NPROC = len(os.sched_getaffinity(0))  # before run() pins this process to one CPU
WORKLOADS = ("cli_cold", *workloads.IN_PROCESS)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
CALLS = (
    "graphs.enumerate_contexts",
    "states.builtin_measurements",
    "interferometer.compose",
    "ofnc.projector_distance",
    "decoherence.beta_under_noise",
    "photonic.run_context",
)
SELF = (
    "graphs.enumerate_contexts",
    "graphs.independence_number",
    "states.per_vertex_exact",
    "states.beta_value",
    "interferometer.compose",
    "ofnc.projector_distance",
    "decoherence.apply_noise",
    "photonic.run_context",
    "photonic.beta_from_runs",
)
BUSY = (
    "ofnc.delta_threshold",
    "ofnc.distance_curves",
    "decoherence.noise_threshold",
    "decoherence.epsilon_th_curve",
    "photonic.compatibility_check",
    "photonic.sample",
)
CLI_COMMANDS = ("bounds", "ofnc", "decohere", "simulate")
PER_LAYER = {
    "import_s": "s",
    "import.sympy_s": "s",
    "import.networkx_s": "s",
    "import.numpy_s": "s",
    "import.qcontext_self_s": "s",
    **{f"{name}.calls": "calls/cycle" for name in CALLS},
    **{f"{name}.self_s": "s/cycle" for name in SELF},
    **{f"{name}.busy_s": "s/cycle" for name in BUSY},
    "ofnc.compose_per_threshold": "calls/threshold",
    "decoherence.evals_per_threshold": "evals/threshold",
    "photonic.sample.shots_per_s": "shots/s",
    **{f"cli.{command}_s": "s" for command in CLI_COMMANDS},
    **{f"cli.main.{command}.busy_s": "s" for command in CLI_COMMANDS},
    "op.p90_s": "s",
    "op.samples": "count",
    "trace.overhead_frac": "fraction",
}
UNITS = {**END_TO_END, **PER_LAYER, "setup_wall_s": "s", "op_p50_wall_s": "s"}


class BenchmarkError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter with `argv` from the repository root."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def last_json_line(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise BenchmarkError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- cli_cold -------------------------------------------------------------


def cli_setup(seed: int) -> None:
    """Build the command list and make one discarded call."""
    command, argv = workloads.cli_cycle(seed, 0)[0]
    proc = spawn(argv)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up call {command} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def cli_call(argv: list[str], traced: bool) -> dict:
    """One fresh-process call; a traced call runs through cli_child.py."""
    if not traced:
        proc = spawn(argv)
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    proc = spawn([str(HERE / "cli_child.py"), *(argv[2:] if argv[0] == "-m" else [])])
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stdout": "", "stderr": proc.stderr}
    return json.loads(proc.stdout)


def cli_loop(seed: int, seconds: float, traced: bool) -> list[dict]:
    """Whole cycles of fresh-process calls until their wall time reaches `seconds`."""
    clock = timing.CorrectedClock(passes=PROCESS_CALIBRATION_PASSES)
    records, busy, cycle = [], 0.0, 0
    while cycle == 0 or busy < seconds:
        for command, argv in workloads.cli_cycle(seed, cycle):
            record, wall, scale = clock.time(cli_call, argv, traced)
            record.update(command=command, argv=argv, wall=wall, scale=scale)
            records.append(record)
            busy += wall
        cycle += 1
    return records


def check_cli(records: list[dict]) -> dict:
    """Check every call's output (after the timed loop) and split the timings."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import checks

    loop = {"latencies": [], "wall": [], "failures": [], "busy": 0.0}
    for index, r in enumerate(records):
        loop["busy"] += r["wall"] * r["scale"]
        try:
            checks.check_cli(r["command"], r["argv"], r["returncode"], r["stdout"], r["stderr"])
        except Exception as exc:
            loop["failures"].append(f"op {index} ({r['command']}): {type(exc).__name__}: {exc}")
            r["failed"] = True
        else:
            loop["latencies"].append(r["wall"] * r["scale"])
            loop["wall"].append(r["wall"])
    return loop


def cli_command_times(records: list[dict]) -> dict[str, float]:
    """Median corrected time of each kind of call; the two ofnc calls are pooled."""
    times = {"import_s": "import", **{f"cli.{c}_s": c for c in CLI_COMMANDS}}
    return {
        name: median_or_zero(
            [r["wall"] * r["scale"] for r in records if r["command"] == command and not r.get("failed")]
        )
        for name, command in times.items()
    }


# --- in-process workloads -------------------------------------------------


def run_worker(workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    return last_json_line(spawn(argv + (["--trace"] if trace else [])), f"worker for {workload}")


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Corrected and wall set-up times of SETUP_REPS separate set-ups."""
    clock = timing.CorrectedClock(passes=PROCESS_CALIBRATION_PASSES)
    corrected, wall = [], []
    for _ in range(SETUP_REPS):
        if workload == "cli_cold":
            _, seconds, scale = clock.time(cli_setup, seed)
        else:
            result, _, scale = clock.time(run_worker, workload, seed, 0)
            seconds = result["setup_s"]
        corrected.append(seconds * scale)
        wall.append(seconds)
    return corrected, wall


# --- metrics --------------------------------------------------------------


def latency_metrics(loop: dict) -> dict[str, float]:
    latencies = loop["latencies"]
    if not latencies:
        raise BenchmarkError("no op completed its check; nothing to report")
    return {"ops_per_s": len(latencies) / loop["busy"], "op_p50_s": statistics.median(latencies)}


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def layer_metrics(op_sums: list[dict], cycle_len: int) -> dict[str, float]:
    """Per-module figures from per-op span summaries, grouped into cycles of ops.

    Counts and ratios come from the first cycle, so they repeat exactly for a
    seed; times are the median over cycles of each cycle's total.
    """
    cycles = []
    for start in range(0, len(op_sums) - cycle_len + 1, cycle_len):
        spans: dict[str, list[float]] = {}
        under: dict[str, int] = {}
        for summary in op_sums[start:start + cycle_len]:
            for name, stats in summary.get("spans", {}).items():
                total = spans.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(stats):
                    total[i] += value
            for key, count in summary.get("under", {}).items():
                under[key] = under.get(key, 0) + count
        cycles.append((spans, under))

    def stat(name: str, i: int) -> list[float]:
        return [spans.get(name, [0, 0.0, 0.0])[i] for spans, _ in cycles]

    first_spans, first_under = cycles[0]
    metrics: dict[str, float] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = first_spans.get(name, [0])[0]
    for name in SELF:
        metrics[f"{name}.self_s"] = statistics.median(stat(name, 1))
    for name in BUSY:
        metrics[f"{name}.busy_s"] = statistics.median(stat(name, 2))

    def per_call(child: str, parent: str) -> float:
        calls = first_spans.get(parent, [0])[0]
        return first_under.get(f"{child}<{parent}", 0) / calls if calls else 0.0

    metrics["ofnc.compose_per_threshold"] = per_call("interferometer.compose", "ofnc.delta_threshold")
    metrics["decoherence.evals_per_threshold"] = per_call("decoherence.beta_under_noise", "decoherence.noise_threshold")
    sample_busy = sum(stat("photonic.sample", 2))
    sample_calls = sum(stat("photonic.sample", 0))
    metrics["photonic.sample.shots_per_s"] = workloads.SHOTS * sample_calls / sample_busy if sample_busy else 0.0
    return metrics


def import_metrics() -> tuple[dict[str, float], list]:
    """Median import breakdown over fresh `-X importtime` processes, plus their raw tables."""
    clock = timing.CorrectedClock(passes=PROCESS_CALIBRATION_PASSES)
    tables, breakdowns = [], []
    for _ in range(IMPORT_REPS):
        proc, _, scale = clock.time(spawn, ["-X", "importtime", "-c", "import qcontext"])
        if proc.returncode != 0:
            raise BenchmarkError(f"import qcontext failed:\n{proc.stderr[-2000:]}")
        rows = tracing.parse_importtime(proc.stderr)
        tables.append(rows)
        breakdowns.append({k: v * scale for k, v in tracing.import_breakdown(rows).items()})
    return {k: statistics.median(b[k] for b in breakdowns) for k in breakdowns[0]}, tables


# --- environment and output -----------------------------------------------


def git_commit() -> str:
    """HEAD's commit, or a note that the run is not in a git checkout.

    Git is not allowed above the repository root, so a copy of the tree that
    is no checkout does not report the commit of a repository around it.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown (git is not installed)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(args: argparse.Namespace, ops: int) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "networkx": version("networkx"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def report(args, metrics: dict[str, float], keys, samples: dict[str, int], loop: dict) -> None:
    """Print the environment and a table of `metrics`, then the result line with `keys`."""
    attempted = len(loop["latencies"]) + len(loop["failures"])
    print("env " + json.dumps(environment(args, attempted), sort_keys=True))
    for failure in loop["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    width = max(map(len, metrics))
    for name, value in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:<{width}}  {value:.6g} {UNITS[name]}{note}")
    print(f"{'ops_attempted':<{width}}  {attempted}")
    print(f"{'ops_failed':<{width}}  {len(loop['failures'])}")
    print(json.dumps({
        "correct": not loop["failures"],
        "attempted": attempted,
        "failed": len(loop["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in keys},
    }))


def write_trace(args, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
    path.write_text(json.dumps(payload))
    return path


def run(args: argparse.Namespace) -> None:
    if not (SRC / "qcontext" / "__init__.py").is_file():
        raise BenchmarkError(f"no qcontext source under {SRC}; run from a checkout of the repository")
    # One CPU for this process, its workers and its children, so each
    # calibration runs on the CPU whose speed it is meant to measure.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)


def run_untraced(args: argparse.Namespace) -> None:
    setups, setup_walls = setup_times(args.workload, args.seed)
    command_times = {}
    if args.workload == "cli_cold":
        records = cli_loop(args.seed, args.seconds, traced=False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        loop = check_cli(records)
        command_times = cli_command_times(records)
    else:
        result = run_worker(args.workload, args.seed, args.seconds)
        loop, peak_rss_mb = result["untraced"], result["peak_rss_mb"]
    metrics = {"setup_s": statistics.median(setups), **latency_metrics(loop), "peak_rss_mb": peak_rss_mb}
    n = len(loop["latencies"])
    # Shown, not gated: the uncorrected wall-clock figures, and cli_cold's
    # per-command times (the gated metrics are the same on every workload).
    table = {
        **metrics,
        "setup_wall_s": statistics.median(setup_walls),
        "op_p50_wall_s": statistics.median(loop["wall"]),
        **command_times,
    }
    samples = {"setup_s": len(setups), "setup_wall_s": len(setups), "ops_per_s": n, "op_p50_s": n, "op_p50_wall_s": n}
    report(args, table, END_TO_END, samples, loop)


def scaled(summary: dict, scale: float) -> dict:
    """A span summary with its times corrected by the op's scale."""
    spans = {
        name: [calls, self_s * scale, busy_s * scale]
        for name, (calls, self_s, busy_s) in summary.get("spans", {}).items()
    }
    return {"spans": spans, "under": summary.get("under", {})}


def run_traced(args: argparse.Namespace) -> None:
    """Half the time untraced, half traced; the spans give the per-module figures."""
    half = args.seconds / 2
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if args.workload == "cli_cold":
        untraced_records = cli_loop(args.seed, half, traced=False)
        untraced = check_cli(untraced_records)
        metrics.update(cli_command_times(untraced_records))
        records = cli_loop(args.seed, half, traced=True)
        traced = check_cli(records)
        op_sums = [
            scaled(tracing.op_summaries(r["names"], r["spans"]).get(0, {}), r["scale"]) if "spans" in r else {}
            for r in records
        ]
        metrics.update(layer_metrics(op_sums, CLI_CYCLE))
        for command in CLI_COMMANDS:
            metrics[f"cli.main.{command}.busy_s"] = median_or_zero([
                s["spans"]["cli.main"][2] for r, s in zip(records, op_sums)
                if r["command"] == command and "cli.main" in s.get("spans", {})
            ])
        processes = [{"command": r["command"], "names": r.get("names"), "spans": r.get("spans")} for r in records]
    else:
        result = run_worker(args.workload, args.seed, half, trace=True)
        untraced, traced = result["untraced"], result["traced"]
        sums = tracing.op_summaries(result["names"], result["spans"])
        metrics.update(layer_metrics([scaled(sums.get(i, {}), s) for i, s in enumerate(traced["scales"])], 1))
        processes = [{"command": args.workload, "names": result["names"], "spans": result["spans"]}]
    imports, tables = import_metrics()
    metrics.update(imports)
    metrics["op.p90_s"] = p90(untraced["latencies"])
    metrics["op.samples"] = len(untraced["latencies"])
    metrics["trace.overhead_frac"] = (
        latency_metrics(untraced)["ops_per_s"] / latency_metrics(traced)["ops_per_s"] - 1.0
    )
    loop = {
        "latencies": untraced["latencies"] + traced["latencies"],
        "failures": untraced["failures"] + traced["failures"],
    }
    path = write_trace(args, {
        "env": environment(args, len(loop["latencies"]) + len(loop["failures"])),
        "metrics": metrics,
        "importtime": tables,
        "span_columns": ["op", "name", "start_ns", "end_ns", "parent"],
        "processes": processes,
    })
    print(f"trace written to {path.relative_to(ROOT)}")
    report(args, metrics, PER_LAYER, {"op.p90_s": metrics["op.samples"]}, loop)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
