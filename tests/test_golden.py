"""Golden values: the CLI's second-variation terms and positivity rows on
two small scenes, pinned across commits.

``data/golden_terms.json`` holds the values as repr floats, recorded from
the CLI before the scene refactor.  Every term and total must agree to
1e-12 of the largest term of its report (positivity: of its row).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_terms.json").read_text())
RTOL = 1e-12


def _run(tmp_path, cmd, cfg) -> dict:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / cmd
    r = subprocess.run(
        [sys.executable, "-m", "modulilab.cli", cmd, "--config", str(p), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    return json.loads((out / "report.json").read_text())


def _assert_close(got: list, want: list, scale: float, what: str):
    assert len(got) == len(want), what
    for g, w in zip(got, want):
        assert abs(g - w) <= RTOL * scale, f"{what}: {g!r} != {w!r}"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_second_variation_matches_golden(tmp_path, case):
    golden = GOLDEN[case]
    report = _run(tmp_path, "second-variation", golden["config"])
    samples = {str(s["seed"]): s for s in report["samples"]}
    assert set(samples) == set(golden["second_variation"])
    for seed, systems in golden["second_variation"].items():
        for system, want in systems.items():
            got = samples[seed][system]
            assert [t["name"] for t in got["terms"]] == [t[0] for t in want["terms"]]
            scale = max(max(abs(t[1]), abs(t[2])) for t in want["terms"])
            values = [x for t in got["terms"] for x in (t["re"], t["im"])]
            values += [got["total"]["re"], got["total"]["im"]]
            expect = [x for t in want["terms"] for x in t[1:]] + want["total"]
            _assert_close(values, expect, scale, f"{case} seed {seed} {system}")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_positivity_matches_golden(tmp_path, case):
    golden = GOLDEN[case]
    report = _run(tmp_path, "positivity", golden["config"])
    rows = {str(int(r[0])): r[1:] for r in report["rows"]}
    assert set(rows) == set(golden["positivity"])
    for seed, want in golden["positivity"].items():
        _assert_close(rows[seed], want, max(abs(x) for x in want), f"{case} seed {seed} positivity")
