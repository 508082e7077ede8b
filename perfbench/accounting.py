"""Arithmetic of the benchmark: operation accounting, span self times and
percentiles.  Pure functions over plain data, so that the tests in
``test_accounting.py`` can pin them without running the program."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Exit codes of the modulilab CLI: 0 every asserted invariant passed,
# 1 numerical failure listed in report.json, 2 config or input error.
EXIT_PASS, EXIT_NUMERICAL = 0, 1


@dataclass(frozen=True)
class Op:
    """One operation: a check in a report.json or one output comparison.

    ``known`` marks a failure that the reference commit already had; it
    counts against ``passed_frac`` but not against the run's ``failed``.
    """

    name: str
    ok: bool
    known: bool = False


def child_ops(
    command: str,
    exit_code: int | None,
    report: dict | None,
    expected_checks: int,
    known_failures: frozenset = frozenset(),
) -> list[Op]:
    """Operations of one CLI invocation, from its exit code and report.

    A child that crashed (killed by a signal or any exit code other than
    0 and 1), exited 2, left no report, or whose exit code contradicts
    its report counts every expected check as failed.  Otherwise each
    check is one operation, and checks the report is missing count as
    failed.
    """
    checks = report.get("checks") if isinstance(report, dict) else None
    consistent = (
        exit_code in (EXIT_PASS, EXIT_NUMERICAL)
        and isinstance(checks, list)
        and (exit_code == EXIT_PASS) == all(c.get("pass") is True for c in checks)
    )
    if not consistent:
        reason = "no_report" if checks is None else f"exit_{exit_code}"
        return [Op(f"{command}:{reason}:{i}", False) for i in range(max(expected_checks, 1))]
    ops = []
    for c in checks:
        name, ok = str(c.get("name")), c.get("pass") is True
        ops.append(Op(f"{command}:{name}", ok, known=not ok and name in known_failures))
    ops += [Op(f"{command}:missing:{i}", False) for i in range(expected_checks - len(checks))]
    return ops


def count_ops(ops: list[Op]) -> tuple[int, int, int]:
    """(attempted, failed excluding known failures, failed in total)."""
    failed_all = sum(not op.ok for op in ops)
    failed_new = sum(not op.ok and not op.known for op in ops)
    return len(ops), failed_new, failed_all


def close(value: float, ref: float, scale: float, rtol: float) -> bool:
    """|value - ref| within ``rtol`` of the comparison's scale."""
    return math.isfinite(value) and abs(value - ref) <= rtol * scale


# ---------------------------------------------------------------------------
# spans


def self_times(spans: list) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its children.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Children are clipped to their
    parent and overlapping children are counted once.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# percentiles

PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples, in
    exact arithmetic so that 90% of 100 is 90 and not 91."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int, beyond: int = 10) -> float:
    """Highest reported percentile with at least ``beyond`` samples above it.

    Falls back to the median (50) when no higher one qualifies.
    """
    best = 50.0
    for p in PERCENTILES:
        if n - _rank(p, n) >= beyond:
            best = p
    return best


def quantile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("quantile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def median(values: list[float]) -> float:
    """Middle value, or the mean of the two middle values."""
    if not values:
        raise ValueError("median of no samples")
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def summarize(values: list[float]) -> dict:
    """Median, the tail percentile the sample count allows, and the count."""
    p = tail_percentile(len(values))
    out = {"p50": median(values), "n": len(values)}
    if p > 50.0:
        out[f"p{p:g}"] = quantile(values, p)
    return out
