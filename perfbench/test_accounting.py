"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

from accounting import (
    Op,
    child_ops,
    count_ops,
    median,
    quantile,
    self_times,
    summarize,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent


def _report(*checks):
    return {"checks": [{"name": n, "pass": ok} for n, ok in checks]}


# -- failure accounting -------------------------------------------------------


def test_exit_0_with_passing_checks_fails_nothing():
    ops = child_ops("positivity", 0, _report(("a", True), ("b", True)), 2)
    assert count_ops(ops) == (2, 0, 0)


def test_exit_1_counts_its_failing_check():
    ops = child_ops("projector-derivative", 1, _report(("fd", False), ("slope", True)), 2)
    assert count_ops(ops) == (2, 1, 1)
    assert [op.name for op in ops if not op.ok] == ["projector-derivative:fd"]


def test_known_failure_counts_in_total_but_not_as_new():
    ops = child_ops("projector-derivative", 1, _report(("fd", False), ("slope", True)), 2, frozenset({"fd"}))
    assert count_ops(ops) == (2, 0, 1)
    ops = child_ops("projector-derivative", 1, _report(("fd", True), ("slope", False)), 2, frozenset({"fd"}))
    assert count_ops(ops) == (2, 1, 1)


@pytest.mark.parametrize(
    "exit_code, report",
    [
        (2, None),  # config error
        (2, _report(("a", True))),  # config error that still left a report behind
        (-9, None),  # killed by a signal
        (None, None),  # killed at the run deadline
        (1, None),  # traceback, no report
        (0, None),  # missing report
        (0, {"checks": "garbage"}),  # unreadable report
        (0, _report(("a", False), ("b", True), ("c", True))),  # exit code contradicts report
        (1, _report(("a", True), ("b", True), ("c", True))),
    ],
)
def test_crash_exit_2_missing_or_inconsistent_report_fail_every_check(exit_code, report):
    ops = child_ops("check-operators", exit_code, report, 3)
    assert count_ops(ops) == (3, 3, 3)


def test_checks_missing_from_a_report_count_as_failed():
    ops = child_ops("second-variation", 0, _report(("s0", True)), 3)
    assert count_ops(ops) == (3, 2, 2)


def test_crash_of_a_command_without_checks_still_counts_one_failure():
    assert count_ops(child_ops("positivity", -11, None, 0)) == (1, 1, 1)


def test_count_ops_separates_known():
    ops = [Op("a", True), Op("b", False), Op("c", False, known=True)]
    assert count_ops(ops) == (3, 1, 2)


# -- self time ----------------------------------------------------------------


def test_self_time_of_nested_spans_sums_to_the_root():
    spans = [
        ("process", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 2.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),  # overlaps x on [4, 6]
        ("z", 9.0, 12.0, 0),  # runs past the root's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_without_children_is_all_self():
    assert self_times([("only", 1.5, 2.0, -1)]) == pytest.approx([0.5])


def test_tracer_nests_spans_and_keeps_extras_out_of_them(monkeypatch):
    import itertools

    import trace_cli

    clock = itertools.count(1.0)  # every reading of the clock advances it by 1
    monkeypatch.setattr(trace_cli, "now", lambda: next(clock))
    tracer = trace_cli.Tracer(0.0)
    inner = tracer.wrap("m.inner", lambda x: x + 1, on_return=lambda r, a, k: {"r": r})
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    # open outer (1), open inner (2), close inner (3), extras timed (4, 5), close outer (6)
    assert tracer.spans[1:] == [["m.outer", 1.0, 6.0, 0, None], ["m.inner", 2.0, 3.0, 1, {"r": 2}]]
    assert tracer.extras_s == 1.0
    assert tracer.stack == [0]


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p",
    [(1, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, p):
    assert tail_percentile(n) == p


def test_quantile_is_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert quantile(xs, 50) == 50.0
    assert quantile(xs, 90) == 90.0
    assert quantile([3.0], 99) == 3.0


def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_summarize_reports_count_and_only_supported_percentiles():
    small = summarize([float(i) for i in range(23)])
    assert small == {"p50": 11.0, "n": 23}
    big = summarize([float(i) for i in range(1, 201)])
    assert big["n"] == 200 and big["p90"] == 180.0 and "p99" not in big


def test_empty_samples_raise():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        quantile([], 50)


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_names_the_metrics_and_workloads_run_py_reports():
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    compared = {name: unit for name, unit, keep, _ in run.LAYER_METRICS if keep}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == compared


def test_reference_comparison_flags_a_term_off_by_more_than_rtol():
    import run

    ref = {"terms": {"a": [1.0, 0.0], "b": [0.0, 2.0]}, "total": [1.0, 2.0]}
    got = {
        "terms": [{"name": "a", "re": 1.0, "im": 0.0}, {"name": "b", "re": 0.0, "im": 2.0 + 1e-11}],
        "total": {"re": 1.0, "im": 2.0},
    }
    assert run._report_close(got, ref)
    got["terms"][1]["im"] = 2.0 + 1e-9
    assert not run._report_close(got, ref)
    got["terms"][1] = {"name": "c", "re": 0.0, "im": 2.0}
    assert not run._report_close(got, ref)
