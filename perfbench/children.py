"""Spawn one modulilab CLI invocation in its own child process, wait for
it, and collect its wall time, peak RSS, exit code and report.json."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"

now = time.monotonic  # system-wide on Linux, so spans of a child compare with it

# One BLAS thread: on a small shared host a second BLAS thread mostly
# spins, and the spread of wall time is wider with it.  Four runs of the
# su2 refinement-3 second-variation on a 2-vCPU VM took 9.4-10.4 s with
# the default two threads and 11.2-11.3 s with one.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_present() -> bool:
    return (SRC / "modulilab" / "cli.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PERFBENCH_T0", None)
    return env


@dataclass
class Child:
    argv: list
    exit_code: int | None  # None when killed for running past its deadline
    wall_s: float
    peak_rss_mb: float
    out_dir: Path
    report: dict | None
    report_bytes: bytes | None
    stderr_tail: str
    spans_path: Path | None = None


def run_cli(
    args: list[str],
    out_dir: Path,
    timeout_s: float,
    traced: bool = False,
    as_limit_bytes: int | None = None,
) -> Child:
    """Run ``modulilab <args> --out <out_dir>`` from the checkout root.

    ``traced`` runs it under ``trace_cli.py``, which writes spans next to
    the report.  ``as_limit_bytes`` caps the child's address space, so
    that an oversized allocation fails fast with MemoryError.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    spans_path = out_dir / "spans.json" if traced else None
    if traced:
        argv = [sys.executable, str(TRACE_CLI), str(spans_path)]
    else:
        argv = [sys.executable, "-m", "modulilab.cli"]
    argv += list(args) + ["--out", str(out_dir)]
    env = child_env()
    preexec = None
    if as_limit_bytes is not None:
        def preexec():
            resource.setrlimit(resource.RLIMIT_AS, (as_limit_bytes, as_limit_bytes))
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        t0 = now()
        if traced:
            env["PERFBENCH_T0"] = repr(t0)
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=so, stderr=se, preexec_fn=preexec)
        killed = []

        def deadline(signum, frame):
            killed.append(True)
            proc.kill()

        old = signal.signal(signal.SIGALRM, deadline)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report_path = out_dir / "report.json"
    report, raw = None, None
    if report_path.is_file():
        raw = report_path.read_bytes()
        try:
            report = json.loads(raw)
        except json.JSONDecodeError:
            report = None
    tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
    return Child(
        argv=argv,
        exit_code=None if killed else proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        out_dir=out_dir,
        report=report,
        report_bytes=raw,
        stderr_tail=tail[0] if tail else "",
        spans_path=spans_path if traced and spans_path.is_file() else None,
    )
