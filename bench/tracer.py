"""In-process layer tracing of one `mcs-adi` command.

Run as a child process, from the repository root:

    PYTHONPATH=src python3 -u bench/tracer.py SPANS.json <mcs-adi arguments>

It times the cold `import mcs_adi.cli`, wraps every public function of the
layer modules, rebinds each wrapper at every name a caller looks it up by
(module globals and module-level dispatch tables such as the step-function
map), runs `mcs_adi.cli.main` on the arguments, and writes the spans out
when the command ends.  Its stdout is the command's own stdout.

A span is [id, name, start, end, parent id, thread id, points].  A span
opened on a worker thread with no open span of its own takes the innermost
open span of the main thread as its parent, so the spans of a thread pool
nest under the call that submitted the work.  `points` is the number of
spectral points of a `stability_function` call and 0 elsewhere.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types

LAYERS = ("cli", "config", "solver", "spectrum", "stability", "analysis")


def _span_suffix(name: str, args) -> str:
    """Split a few spans by the argument that changes their cost."""
    if name == "solver.solve_directional":
        return ".x" if args[1] == 1 else ".y"
    if name == "solver.apply_split_operator":
        return ".j0" if args[1] == 0 else ".j12"
    if name == "analysis.verify_theorem":
        return f".thm{args[0]}"
    return ""


class Tracer:
    """Spans kept in memory, one list per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span that was not produced by a wrapper."""
        self.spans.append([next(self._ids), name, start, end, -1, threading.get_ident(), 0])

    def wrap(self, name: str, fn):
        count_points = name == "stability.stability_function"
        import numpy as np

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            points = np.broadcast(*args[1:4]).size if count_points else 0
            label = name + _span_suffix(name, args)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([sid, label, start, end, parent, threading.get_ident(), points])

        return traced

    def install(self, package: str = "mcs_adi") -> None:
        """Wrap the public functions of every layer and rebind them at every caller."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            obj[key] = wrappers[value]


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, per span id.

    Children on different threads may overlap; the union counts that
    overlap once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import mcs_adi.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return mcs_adi.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
