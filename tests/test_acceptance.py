"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Desk scale: genus-2 meshes up to a few hundred faces, rank 2, dense cap
6000.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import subprocess
import sys
import time

import numpy as np
from click.testing import CliRunner
from modulilab import bundle as bnd
from modulilab import cli
from modulilab import oracle, variation as var
from modulilab.bundle import Scene
from conftest import dense_delta0_inverse, dense_projection, ip, one_tangent, random_cochain


def _line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def test_criterion_01_operator_algebra(su2_scene, rng):
    t0 = time.time()
    cx = su2_scene.endo
    s1 = np.sqrt(cx.w1)
    Ms = oracle.DenseOperator(dense_projection(cx), cx.w1, cx.w1).framed_in_place()
    e_idem = np.linalg.norm(Ms @ Ms - Ms, 2)
    e_sa = np.linalg.norm(Ms - Ms.conj().T, 2)
    D = cx.dbar.toarray()
    Ds = (D * s1[:, None]) / np.sqrt(cx.w0)[None, :]
    e_pd = np.linalg.norm(Ms @ Ds, 2) / np.linalg.norm(Ds, 2)
    worst_adj = 0.0
    V, F = cx.n_vertices, cx.n_faces
    for _ in range(1000):
        f = random_cochain(rng, V, 2).reshape(-1)
        a = random_cochain(rng, F, 2).reshape(-1)
        lhs = ip(cx.w1, cx.dbar @ f, a)
        rhs = ip(cx.w0, f, cx.star(cx.dbar, a))
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1.0))
    elapsed = time.time() - t0
    ok = e_idem <= 1e-8 and e_sa <= 1e-8 and e_pd <= 1e-8 and worst_adj <= 1e-10 and elapsed <= 60
    assert _line(
        "1 operator algebra",
        ok,
        f"|P^2-P|={e_idem:.2e} |P-P*|={e_sa:.2e} |P dbar|={e_pd:.2e} "
        f"adjointness={worst_adj:.2e} over 1000 trials in {elapsed:.1f}s",
    )


def test_criterion_02_kernel_commutant(surf_hyp, fan2_r2, su2_r2, triv1_r2, triv2_r2):
    triv3 = bnd.trivial_cocycle(fan2_r2, 3)
    results = []
    for c, expect in ((su2_r2, 1), (triv1_r2, 1), (triv2_r2, 4), (triv3, 9)):
        cdim = bnd._commutant(c).shape[1]
        kdim = oracle.DenseFrame(Scene(surf_hyp, c).endo).kernel.shape[1]
        results.append((kdim, cdim, expect))
    ok = all(k == c == e for k, c, e in results)
    assert _line(
        "2 kernel/commutant",
        ok,
        f"(ker, commutant, expected) = {results} (su2, trivial ranks 1..3)",
    )


def test_criterion_03_oracle_equivalence(su2_scene, rng):
    cx = su2_scene.endo
    inv = dense_delta0_inverse(cx)
    worst = 0.0
    for _ in range(100):
        h = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
        x_dense = inv @ h
        x_lu, _ = cx.delta0_solve(h)
        worst = max(worst, np.linalg.norm(x_lu - x_dense) / np.linalg.norm(x_dense))
    ok = worst <= 1e-8
    assert _line("3 oracle equivalence", ok, f"max rel diff {worst:.2e} over 100 rhs")


def test_criterion_05_second_variation_structure(su2_scene):
    worst_sum = 0.0
    worst_herm = 0.0
    for k in range(50):
        vs = [one_tangent(su2_scene, 1000 + 4 * k + i) for i in range(4)]
        q = var.evaluate_quadruple(*vs, su2_scene)
        q_sw = var.evaluate_quadruple(vs[1], vs[0], vs[3], vs[2], su2_scene)
        for rep, rep_sw in ((q.universal, q_sw.universal), (q.fibered, q_sw.fibered)):
            ssum = complex(sum(v for _, v in rep.terms))
            worst_sum = max(worst_sum, abs(rep.total - ssum) / max(abs(ssum), 1.0))
            worst_herm = max(
                worst_herm,
                abs(rep.total - np.conj(rep_sw.total)) / max(abs(rep.total), 1e-8),
            )
    ok = worst_sum <= 1e-12 and worst_herm <= 1e-8
    assert _line(
        "5 second-variation structure",
        ok,
        f"term-sum {worst_sum:.2e}, hermitian symmetry {worst_herm:.2e} over 50 quadruples",
    )


def test_criterion_06_coordinate_difference(su2_scene):
    vs = [one_tangent(su2_scene, 90 + i) for i in range(4)]
    uni, fib, dif = var.evaluate_quadruple(*vs, su2_scene).systems
    scale = max(abs(uni.total), abs(fib.total), 1.0)
    recon = abs(dif.total - (uni.total - fib.total)) / scale
    systems_differ = abs(dif.total) > 1e-6 * scale  # third-order disagreement is real
    added = sum(1 for n, _ in dif.terms if n.startswith("added_"))
    removed = sum(1 for n, _ in dif.terms if n.startswith("removed_"))
    F = su2_scene.surface.n_faces
    zmu = np.zeros(F, dtype=complex)
    znu = np.zeros((F, 2, 2), dtype=complex)
    worst_imag = 0.0
    all_positive = True
    for k in range(50):
        nu1 = one_tangent(su2_scene, 5000 + 2 * k)[1]
        mu2 = one_tangent(su2_scene, 5001 + 2 * k)[0]
        v1 = (zmu, nu1)
        v2 = (mu2, znu)
        d = var.evaluate_quadruple(v1, v2, v2, v1, su2_scene).difference
        worst_imag = max(worst_imag, abs(d.total.imag) / max(abs(d.total.real), 1e-30))
        all_positive = all_positive and d.total.real > 0.0
    ok = (
        recon <= 1e-10
        and systems_differ
        and added == 4
        and removed == 2
        and worst_imag <= 1e-10
        and all_positive
    )
    assert _line(
        "6 coordinate difference",
        ok,
        f"reconciliation {recon:.2e}, nonzero difference: {systems_differ}, "
        f"bookkeeping {added}+{removed}, restricted imag {worst_imag:.2e}, "
        f"all 50 totals positive: {all_positive}",
    )


def test_criterion_07_positivity_decomposition(su2_scene):
    F = su2_scene.surface.n_faces
    zmu = np.zeros(F, dtype=complex)
    znu = np.zeros((F, 2, 2), dtype=complex)
    worst_recon = 0.0
    sign_ok = True
    for k in range(50):
        nu1 = one_tangent(su2_scene, 7000 + 2 * k)[1]
        mu2 = one_tangent(su2_scene, 7001 + 2 * k)[0]
        a, b, total = var.positivity_certificate(mu2, nu1, su2_scene)
        sign_ok = sign_ok and a >= -1e-12 * max(abs(total), 1.0) and b > 0.0
        v1 = (zmu, nu1)
        v2 = (mu2, znu)
        d = var.evaluate_quadruple(v1, v2, v2, v1, su2_scene).difference
        worst_recon = max(worst_recon, abs(d.total - total) / max(abs(total), 1.0))
    ok = sign_ok and worst_recon <= 1e-10
    assert _line(
        "7 positivity decomposition",
        ok,
        f"signs ok: {sign_ok}, certificate vs restricted difference {worst_recon:.2e}",
    )


def test_criterion_08_projector_derivative(su2_scene_r1):
    sweep = var.projector_derivative_sweep(su2_scene_r1, seed=0)
    err = sweep["errors"][1e-4]
    slope = sweep["slope"]
    ok = err <= 1e-6 and abs(slope - 2.0) <= 0.2
    assert _line(
        "8 projector-derivative identity",
        ok,
        f"fd error along the deformation {err:.2e} at step 1e-4, log-log slope {slope:.3f}",
    )


def test_criterion_09_rank1_mu_zero_vanishing(triv1_scene):
    vs = [one_tangent(triv1_scene, i, mu_scale=0.0) for i in range(4)]
    q = var.evaluate_quadruple(*vs, triv1_scene)
    uni, fib = q.universal, q.fibered
    worst = max(abs(v) for _, v in uni.terms + fib.terms)
    ok = worst <= 1e-12 and abs(uni.total) <= 1e-12 and abs(fib.total) <= 1e-12
    assert _line("9 rank-1 / mu=0 vanishing", ok, f"max |term| = {worst:.2e}")


def test_criterion_10_cli(tmp_path, monkeypatch):
    t0 = time.time()
    cfg = {
        "mesh": {"genus": 2, "refinements": 1, "density": "hyperbolic"},
        "bundle": {"preset": "su2"},
        "seeds": [0, 1],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "modulilab.cli", *args], capture_output=True, text=True
        )

    codes = {}
    for cmd in ("check-operators", "second-variation", "positivity", "projector-derivative"):
        r = run(cmd, "--config", str(p), "--out", str(tmp_path / cmd))
        codes[cmd] = r.returncode
    r1 = run("second-variation", "--config", str(p), "--out", str(tmp_path / "d1"))
    r2 = run("second-variation", "--config", str(p), "--out", str(tmp_path / "d2"))
    identical = (tmp_path / "d1" / "report.json").read_bytes() == (
        tmp_path / "d2" / "report.json"
    ).read_bytes()
    # exit codes must track outcomes: unsatisfiable gate -> 1, bad config -> 2
    monkeypatch.setitem(cli.TOLERANCES, "projector_idempotent", 1e-30)
    r_fail = CliRunner().invoke(cli.main, ["check-operators", "--config", str(p), "--out", str(tmp_path / "tight")])
    p3 = tmp_path / "bad.json"
    p3.write_text("{broken")
    r_bad = run("check-operators", "--config", str(p3))
    elapsed = time.time() - t0
    ok = (
        all(code == 0 for code in codes.values())
        and identical
        and r_fail.exit_code == 1
        and r_bad.returncode == 2
        and elapsed <= 600
    )
    assert _line(
        "10 cli determinism and exit codes",
        ok,
        f"exit codes {codes}, byte-identical: {identical}, "
        f"forced-failure exit {r_fail.exit_code}, config-error exit {r_bad.returncode}, "
        f"{elapsed:.0f}s",
    )
