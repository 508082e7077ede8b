"""Gate mutants: each named program fault, put in with monkeypatch, must
make a certified gate fail.  A fault that no gate catches yet is a strict
xfail, naming what will catch it; it turns red on the change that does."""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

from modulilab import _complexes, bundle, cli, conventions, variation
from modulilab._complexes import DolbeaultComplex

SMALL_SU2 = {
    "mesh": {"genus": 2, "refinements": 1, "layout": "stored", "density": "hyperbolic"},
    "bundle": {"preset": "su2"},
    "seeds": [0],
}

COMMANDS = ("check-operators", "second-variation", "positivity", "projector-derivative")


def _run(tmp_path, cmd):
    """Exit code and report of ``cmd`` on SMALL_SU2, run in this process."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SU2))
    out = tmp_path / cmd
    r = CliRunner().invoke(cli.main, [cmd, "--config", str(cfg), "--out", str(out)])
    return r.exit_code, json.loads((out / "report.json").read_text())


_SOLVE = DolbeaultComplex.delta0_solve


def _star_without_w1(self, M, y):
    Y = self._read(y, M.shape[0])
    return _complexes._layout(np.conj(M.T @ np.conj(Y)) / self.w0[:, None], y)


def _project_with_dhol(self, alpha):
    x, _ = self.delta0_solve(self.star(self.dbar, alpha))
    return alpha - self.apply(self.dhol, x)


def _scaled_solve(self, h):
    x, stats = _SOLVE(self, h)
    return x * (1.0 + 1e-6), stats


def _endo_replacing(field, fault):
    """A ``bundle.operators`` whose End(E) complex has ``field`` replaced
    by ``fault`` of the unfaulted complex."""
    operators = bundle.operators

    def faulted(S, c):
        cx = operators(S, c)
        return dataclasses.replace(cx, **{field: fault(cx)})

    return faulted


GEOMETRIC = ("fd_error_geometric_at_1e-4", "loglog_slope_geometric_near_2")

# fault -> (command, owner, attribute, replacement, the gates it must fail)
FAULTS = {
    "star_without_w1": (
        "check-operators", DolbeaultComplex, "star", _star_without_w1,
        ("adjointness_residual", "projector_idempotent"),
    ),
    "dhol_doubled": (
        "check-operators", bundle, "operators", _endo_replacing("dhol", lambda cx: 2 * cx.dhol), ("kahler_identity",),
    ),
    "projection_with_dhol": (
        "check-operators", DolbeaultComplex, "harmonic_project", _project_with_dhol, ("projector_self_adjoint",),
    ),
    "projection_is_identity": (
        "check-operators", DolbeaultComplex, "harmonic_project", lambda self, alpha: alpha.copy(),
        ("projector_annihilates_dbar",),
    ),
    "commutant_extra_column": (
        "check-operators", bundle, "operators",
        _endo_replacing("commutant", lambda cx: np.hstack([cx.commutant, np.eye(len(cx.commutant), 1, -1)])),
        ("kernel_equals_commutant",),
    ),
    "delta0_solve_scaled": (
        "check-operators", DolbeaultComplex, "delta0_solve", _scaled_solve, ("delta0_factorized_vs_dense",),
    ),
    "commutant_missing_column": (
        "check-operators", bundle, "operators", _endo_replacing("commutant", lambda cx: cx.commutant[:, :-1]),
        ("evaluated",),
    ),
    "ad_star_negated": (
        "projector-derivative", variation, "ad_star", lambda cx, nu, alpha: -_complexes.ad_star(cx, nu, alpha),
        GEOMETRIC,
    ),
    "ad_negated": ("projector-derivative", variation, "ad", lambda cx, nu, f: -_complexes.ad(cx, nu, f), GEOMETRIC),
    "dD_without_mu_d": (
        "projector-derivative", variation, "_dD", lambda cx, v, f: _complexes.ad(cx, v[1], f), GEOMETRIC,
    ),
}

# gates that hold for any input by construction: no program fault fails them
STRUCTURAL = ("difference_reconciles", "term_a_nonneg", "total_positive")


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_gate_catches(tmp_path, monkeypatch, fault):
    cmd, owner, name, patched, gates = FAULTS[fault]
    monkeypatch.setattr(owner, name, patched)
    code, report = _run(tmp_path, cmd)
    assert code == 1
    if cmd == "projector-derivative":
        assert report["failures"] == list(gates)
    assert set(gates) <= set(report["failures"]), report["failures"]


def test_every_gate_is_mutated_or_structural():
    caught = {gate for *_, gates in FAULTS.values() for gate in gates}
    assert caught.isdisjoint(STRUCTURAL)
    assert caught | set(STRUCTURAL) == set(cli.TOLERANCES)


def test_unfaulted_commands_pass(tmp_path):
    for cmd in COMMANDS:
        code, report = _run(tmp_path, cmd)
        assert code == 0 and report["failures"] == [], cmd


@pytest.mark.xfail(
    strict=True,
    reason="no gate reads the sign of the gauge source; the Kaehler symmetry checks of ROADMAP item 18 stage B will",
)
def test_negated_gauge_source_calibration_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(conventions, "GAUGE_SOURCE_CALIBRATION", -conventions.GAUGE_SOURCE_CALIBRATION)
    assert 1 in [_run(tmp_path, cmd)[0] for cmd in COMMANDS]
