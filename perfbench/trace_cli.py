"""Run one modulilab CLI command with a span around every public function
of every layer, and write the spans to a JSON file at exit.

    python3 perfbench/trace_cli.py SPANS.json <modulilab CLI arguments>

Callers bind names with ``from ... import``, so each wrapper is installed
in every module namespace (and module-level table) that holds the
original, and ``DolbeaultComplex.delta0_solve`` is wrapped on the class.
The program itself is not changed.  Spans are kept in memory as
``[name, start, end, parent, extras]`` on the system-wide monotonic
clock; span 0 is the whole process, starting at the spawn time the
parent passes in ``PERFBENCH_T0``.

The file also holds what the tracer itself cost: the time to install the
wrappers, the time spent computing span extras (hashing right-hand
sides), and the cost of one span measured at exit by timing a wrapped
no-op against the bare one.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import resource
import sys
import time

now = time.monotonic
T_SPAWN = float(os.environ.get("PERFBENCH_T0", now()))

LAYERS = ("cli", "surface", "bundle", "_complexes", "calculus", "tangent", "variation", "oracle")
# private functions that mark a boundary the per-layer metrics need
PRIVATE_BOUNDARIES = {"cli": ("_finish", "_sample_reports")}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, t_spawn: float):
        self.spans: list[list] = [["process", t_spawn, None, -1, None]]
        self.stack = [0]
        self.extras_s = 0.0  # time spent in on_return, charged to the caller's span

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, now(), None, self.stack[-1], None])
        self.stack.append(i)
        return i

    def close(self, i: int, extras: dict | None = None) -> None:
        self.stack.pop()
        self.spans[i][2] = now()
        self.spans[i][4] = extras

    def wrap(self, name: str, fn, on_return=None):
        """Span around every call of ``fn``.  ``on_return`` computes the
        span's extras after the span has closed, so that its cost is not
        charged to ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_return is not None:
                t = now()
                self.spans[i][4] = on_return(result, args, kwargs)
                self.extras_s += now() - t
            return result

        return traced

    def wrap_rss(self, name: str, fn):
        """Span that also records the peak-RSS growth across the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _rss_mb()
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i, {"rss_growth_mb": _rss_mb() - before})

        return traced


def _rhs_key(h) -> str:
    """Hash of the right-hand side rounded to 10 digits of its max entry."""
    import numpy as np

    h = np.asarray(h)
    scale = float(np.max(np.abs(h))) if h.size else 1.0
    r = np.round(h / (scale or 1.0), 10) + 0.0
    return hashlib.blake2b(r.tobytes(), digest_size=8).hexdigest()


def _solve_extras(result, args, kwargs) -> dict:
    cx, h = args[0], args[1]
    which = args[2] if len(args) > 2 else kwargs.get("which", "dbar")
    _, stats = result
    return {
        "complex": id(cx),
        "which": which,
        "rhs": _rhs_key(h),
        "residual": float(stats.get("residual", 0.0)),
        "method": stats.get("method"),
    }


def _columns(result, args, kwargs) -> dict:
    return {"columns": int(result.matrix.shape[1])}


def _noop():
    return None


def span_cost(calls: int = 2_000, rounds: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare
    one, median over ``rounds`` rounds, on a tracer of its own."""
    wrapped = Tracer(now()).wrap("calibrate", _noop)
    costs = []
    for _ in range(rounds):
        t0 = now()
        for _ in range(calls):
            wrapped()
        t1 = now()
        for _ in range(calls):
            _noop()
        t2 = now()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return sorted(costs)[rounds // 2]


def install(tracer: Tracer) -> None:
    mods = {name: importlib.import_module(f"modulilab.{name}") for name in LAYERS}
    special = {"oracle.materialize": _columns}
    wrapped: dict[int, object] = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE_BOUNDARIES.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            if name == "bundle.operators":
                wrapped[id(obj)] = tracer.wrap_rss(name, obj)
            else:
                wrapped[id(obj)] = tracer.wrap(name, obj, special.get(name))
    # rebind every name and table entry that refers to an original
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "modulilab" or mod_name.startswith("modulilab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in wrapped:
                        obj[k] = wrapped[id(v)]
    cx_cls = mods["_complexes"].DolbeaultComplex
    cx_cls.delta0_solve = tracer.wrap("_complexes.delta0_solve", cx_cls.delta0_solve, _solve_extras)
    cli = mods["cli"]
    for cmd in cli.main.commands.values():
        cmd.callback = tracer.wrap(f"cli.{cmd.callback.__name__}", cmd.callback)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(T_SPAWN)
    import modulilab.cli as cli

    tracer.spans.append(["cli.import", T_SPAWN, now(), 0, None])
    t = now()
    install(tracer)
    install_s = now() - t
    code = 0
    i = tracer.open("cli.main")
    try:
        cli.main.main(args=cli_args, prog_name="modulilab", standalone_mode=True)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.close(i)
        tracer.spans[0][2] = now()
        cost = {"install_s": install_s, "extras_s": tracer.extras_s, "span_s": span_cost()}
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "exit_code": code, "cost": cost}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
