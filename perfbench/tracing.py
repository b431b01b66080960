"""Spans around qcontext's public functions, installed from outside the package.

`Tracer.install` replaces every public module-level function of the traced
modules with a wrapper that records a span (op index, name, start, end,
parent span).  It also replaces the names other modules bound with
`from .x import y` (say `ofnc.compose` or `photonic.enumerate_contexts`), so
a nested call gets its caller as parent.  Spans stay in memory; the caller
writes them out when the run ends.  Nothing under `src/` is modified.

This module imports only the standard library, so the set-up timing of a
process that imports it still starts before numpy or qcontext load.
"""
from __future__ import annotations

import functools
import inspect
import re
import time
from collections import defaultdict

# A span row: [op index, name index, start ns, end ns, parent row or -1].
OP, NAME, START, END, PARENT = range(5)


def _is_public_function(obj: object, module_name: str, attr: str) -> bool:
    if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != module_name:
        return False
    # Plain functions and lru_cache wrappers; not constants or types.
    return inspect.isfunction(obj) or hasattr(obj, "cache_clear")


class Tracer:
    """Records spans while `recording` is true; `op` tags each span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.op = 0
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import qcontext
        from qcontext import cli, decoherence, graphs, interferometer, ofnc, photonic, states

        modules = (graphs, states, interferometer, ofnc, decoherence, photonic, cli)
        wrappers: dict[int, tuple[object, object]] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if _is_public_function(obj, module.__name__, attr):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module in (qcontext, *modules):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            row = [self.op, name_index, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()

        return traced


def op_summaries(names: list[str], spans: list[list[int]]) -> dict[int, dict]:
    """Per op: calls, self and busy seconds per span name, plus nesting counts.

    Self time is a span's duration minus the durations of its child spans.
    Busy time adds up the spans of a name that have no ancestor of the same
    name.  `under["a<b"]` counts calls of a made anywhere beneath a call of b.
    """
    child_ns = [0] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            child_ns[row[PARENT]] += row[END] - row[START]
    out: dict[int, dict] = {}
    for index, row in enumerate(spans):
        summary = out.get(row[OP])
        if summary is None:
            summary = out[row[OP]] = {"spans": defaultdict(lambda: [0, 0, 0]), "under": defaultdict(int)}
        name = names[row[NAME]]
        duration = row[END] - row[START]
        ancestors = set()
        parent = row[PARENT]
        while parent >= 0:
            ancestors.add(names[spans[parent][NAME]])
            parent = spans[parent][PARENT]
        stats = summary["spans"][name]
        stats[0] += 1
        stats[1] += duration - child_ns[index]
        if name not in ancestors:
            stats[2] += duration
        for ancestor in ancestors:
            summary["under"][f"{name}<{ancestor}"] += 1
    return {
        op: {
            "spans": {k: [c, s / 1e9, b / 1e9] for k, (c, s, b) in v["spans"].items()},
            "under": dict(v["under"]),
        }
        for op, v in out.items()
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> list[tuple[str, int, float, float]]:
    """Rows (module, depth, self s, cumulative s) of `python -X importtime` output."""
    rows = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            self_us, cumulative_us, indent, module = match.groups()
            rows.append((module, (len(indent) - 1) // 2, int(self_us) / 1e6, int(cumulative_us) / 1e6))
    return rows


def import_breakdown(rows: list[tuple[str, int, float, float]]) -> dict[str, float]:
    """Seconds per dependency, from one process's import table.

    A dependency's figure is the cumulative time of its first import, which
    includes whatever it pulls in that was not loaded yet (mpmath under
    sympy).  qcontext's own share is the self time of its modules.
    """
    first = {}
    for module, _, _, cumulative in rows:
        first.setdefault(module, cumulative)
    return {
        "import.sympy_s": first.get("sympy", 0.0),
        "import.networkx_s": first.get("networkx", 0.0),
        "import.numpy_s": first.get("numpy", 0.0),
        "import.qcontext_self_s": sum(
            s for module, _, s, _ in rows if module == "qcontext" or module.startswith("qcontext.")
        ),
    }
