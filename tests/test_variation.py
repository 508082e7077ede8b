import json

import numpy as np
import pytest

from modulilab import bundle as bnd
from modulilab import oracle
from modulilab import variation as var
from modulilab._complexes import endo_complex
from modulilab.bundle import BundleCochain
from modulilab.calculus import Beltrami
from modulilab.tangent import TangentVector, random_tangent


def quad(surf, coc, base_seed, **kw):
    return [random_tangent(surf, coc, seed=base_seed + i, **kw) for i in range(4)]


def zero_tv(surf, n):
    return TangentVector(
        Beltrami(np.zeros(surf.n_faces, dtype=complex)),
        BundleCochain(np.zeros((surf.n_faces, n, n), dtype=complex), (0, 1)),
        harmonic=True,
    )


def scale_tv(v, lam):
    return TangentVector(
        Beltrami(lam * v.mu.values), BundleCochain(lam * v.nu.values, (0, 1)), harmonic=True
    )


# -- metric ------------------------------------------------------------------


def test_metric_positive_definite(surf_hyp, su2_r2):
    for seed in range(5):
        v = random_tangent(surf_hyp, su2_r2, seed=seed)
        g = var.metric_g(v, v, surf_hyp, su2_r2)
        assert g.real > 0 and abs(g.imag) <= 1e-12 * g.real


def test_metric_hermitian(surf_hyp, su2_r2):
    v1 = random_tangent(surf_hyp, su2_r2, seed=1)
    v2 = random_tangent(surf_hyp, su2_r2, seed=2)
    g12 = var.metric_g(v1, v2, surf_hyp, su2_r2)
    g21 = var.metric_g(v2, v1, surf_hyp, su2_r2)
    assert abs(g12 - np.conj(g21)) <= 1e-12 * max(abs(g12), 1.0)


def test_metric_blocks_orthogonal(surf_hyp, su2_r2):
    v1 = random_tangent(surf_hyp, su2_r2, seed=3)
    v2 = random_tangent(surf_hyp, su2_r2, seed=4)
    mu_only = TangentVector(v1.mu, zero_tv(surf_hyp, 2).nu, harmonic=True)
    nu_only = TangentVector(zero_tv(surf_hyp, 2).mu, v2.nu, harmonic=True)
    assert var.metric_g(mu_only, nu_only, surf_hyp, su2_r2) == 0.0


# -- first variation ----------------------------------------------------------


def test_first_variation_zero_direction_nu(surf_hyp, su2_r2):
    v1 = random_tangent(surf_hyp, su2_r2, seed=1)
    v2 = random_tangent(surf_hyp, su2_r2, seed=2)
    v_dir = TangentVector(v1.mu, zero_tv(surf_hyp, 2).nu, harmonic=True)
    for system in ("universal", "fibered"):
        d, db = var.first_variation(v_dir, v1, v2, surf_hyp, su2_r2, system)
        assert d == 0.0 and db == 0.0


def test_first_variation_systems_agree(surf_hyp, su2_r2):
    for seed in range(10):
        vs = quad(surf_hyp, su2_r2, 100 + 10 * seed)
        du = var.first_variation(vs[0], vs[1], vs[2], surf_hyp, su2_r2, "universal")
        df = var.first_variation(vs[0], vs[1], vs[2], surf_hyp, su2_r2, "fibered")
        for a, b in zip(du, df):
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-6)


def test_first_variation_hermitian_family(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 50)
    d_eps, d_eps_bar = var.first_variation(vs[0], vs[1], vs[2], surf_hyp, su2_r2)
    d_sw, _ = var.first_variation(vs[0], vs[2], vs[1], surf_hyp, su2_r2)
    assert abs(d_eps_bar - np.conj(d_sw)) <= 1e-12 * max(abs(d_eps_bar), 1e-6)


# -- second variations ---------------------------------------------------------


def test_report_sums_terms(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 7)
    for rep in (
        var.second_variation_universal(*vs, surf_hyp, su2_r2),
        var.second_variation_fibered(*vs, surf_hyp, su2_r2),
    ):
        s = complex(sum(v for _, v in rep.terms))
        assert abs(rep.total - s) <= 1e-12 * max(abs(s), 1.0)


def test_term_counts(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 7)
    uni = var.second_variation_universal(*vs, surf_hyp, su2_r2)
    fib = var.second_variation_fibered(*vs, surf_hyp, su2_r2)
    assert len(uni.terms) == 10
    assert len(fib.terms) == 12


def test_zero_inputs_zero(surf_hyp, su2_r2):
    z = zero_tv(surf_hyp, 2)
    rep = var.second_variation_universal(z, z, z, z, surf_hyp, su2_r2)
    assert rep.total == 0.0


def test_rank1_mu_zero_vanishes(surf_hyp, triv1_r2):
    vs = quad(surf_hyp, triv1_r2, 3, mu_scale=0.0)
    uni = var.second_variation_universal(*vs, surf_hyp, triv1_r2)
    fib = var.second_variation_fibered(*vs, surf_hyp, triv1_r2)
    assert max(abs(v) for _, v in uni.terms + fib.terms) <= 1e-12


def test_hermitian_symmetry_both_systems(surf_hyp, su2_r2):
    for seed in (0, 11):
        vs = quad(surf_hyp, su2_r2, 200 + seed)
        for fn in (var.second_variation_universal, var.second_variation_fibered):
            a = fn(vs[0], vs[1], vs[2], vs[3], surf_hyp, su2_r2).total
            b = fn(vs[1], vs[0], vs[3], vs[2], surf_hyp, su2_r2).total
            assert abs(a - np.conj(b)) <= 1e-8 * max(abs(a), 1e-6)


def test_shared_terms_equal(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 5)
    uni = dict(var.second_variation_universal(*vs, surf_hyp, su2_r2).terms)
    fib = dict(var.second_variation_fibered(*vs, surf_hyp, su2_r2).terms)
    shared = set(uni) & set(fib)
    assert len(shared) == 8
    scale = max(abs(v) for v in uni.values())
    for name in shared:
        assert abs(uni[name] - fib[name]) <= 1e-10 * scale


def test_evaluate_quadruple_matches_separate_evaluations(surf_hyp, su2_r2):
    # the three API calls, and each system recomputed on a workspace of
    # its own as the term functions define it
    vs = quad(surf_hyp, su2_r2, 17)
    uni, fib, dif = var.evaluate_quadruple(*vs, surf_hyp, su2_r2)
    api = [f(*vs, surf_hyp, su2_r2) for f in (var.second_variation_universal, var.second_variation_fibered, var.difference_report)]

    def workspace_terms(extra):
        ws = var._Workspace(surf_hyp, su2_r2)
        terms = var._universal_terms(ws, *vs)
        return terms, (var._fibered_extra_terms(ws, *vs) if extra else [])

    shared, _ = workspace_terms(False)
    shared_f, extra_f = workspace_terms(True)
    shared_d, extra_d = workspace_terms(True)
    removed = var._REMOVED_IN_FIBERED
    fresh = [
        shared,
        [t for t in shared_f if t[0] not in removed] + extra_f,
        [(f"removed_{n}", v) for n, v in shared_d if n in removed] + [(f"added_{n}", -v) for n, v in extra_d],
    ]
    for rep, other, terms in zip((uni, fib, dif), api, fresh):
        scale = max(abs(v) for _, v in rep.terms)
        for ref in (dict(other.terms), dict(terms)):
            assert [n for n, _ in rep.terms] == list(ref)
            assert max(abs(v - ref[n]) for n, v in rep.terms) <= 1e-12 * scale
        assert abs(rep.total - other.total) <= 1e-12 * scale
        assert rep.inputs == other.inputs
    assert [len(r.solver_stats) for r in (uni, fib, dif)] == [5, 9, 9]
    assert dif.total == pytest.approx(uni.total - fib.total, rel=1e-12, abs=1e-12 * abs(uni.total))


def test_multilinearity(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 31)
    lam = 0.6 + 0.9j
    base = var.second_variation_universal(*vs, surf_hyp, su2_r2).total
    expect = [lam, np.conj(lam), lam, np.conj(lam)]
    for slot in range(4):
        args = list(vs)
        args[slot] = scale_tv(args[slot], lam)
        scaled = var.second_variation_universal(*args, surf_hyp, su2_r2).total
        assert abs(scaled - expect[slot] * base) <= 1e-10 * abs(base)


def test_requires_harmonic_flag(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 7)
    bad = TangentVector(vs[0].mu, vs[0].nu, harmonic=False)
    with pytest.raises(var.VariationInputError):
        var.second_variation_universal(bad, vs[1], vs[2], vs[3], surf_hyp, su2_r2)


def test_uniform_density_runs(surf_uni, fan2_r2):
    c = bnd.trivial_cocycle(fan2_r2, 2)
    vs = quad(surf_uni, c, 9)
    uni = var.second_variation_universal(*vs, surf_uni, c)
    fib = var.second_variation_fibered(*vs, surf_uni, c)
    dif = var.difference_report(*vs, surf_uni, c)
    assert abs(dif.total - (uni.total - fib.total)) <= 1e-10 * max(abs(uni.total), 1.0)
    assert uni.conventions_digest["density_policy"] == "uniform"


# -- difference and positivity -------------------------------------------------


def test_difference_bookkeeping(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 13)
    dif = var.difference_report(*vs, surf_hyp, su2_r2)
    added = [n for n, _ in dif.terms if n.startswith("added_")]
    removed = [n for n, _ in dif.terms if n.startswith("removed_")]
    assert len(added) == 4 and len(removed) == 2


def test_difference_reconciles(surf_hyp, su2_r2):
    for seed in range(3):
        vs = quad(surf_hyp, su2_r2, 400 + seed)
        uni = var.second_variation_universal(*vs, surf_hyp, su2_r2)
        fib = var.second_variation_fibered(*vs, surf_hyp, su2_r2)
        dif = var.difference_report(*vs, surf_hyp, su2_r2)
        scale = max(abs(uni.total), abs(fib.total), 1.0)
        assert abs(dif.total - (uni.total - fib.total)) <= 1e-10 * scale


def test_difference_zero_inputs(surf_hyp, su2_r2):
    z = zero_tv(surf_hyp, 2)
    assert var.difference_report(z, z, z, z, surf_hyp, su2_r2).total == 0.0


def test_positivity_zero_inputs(surf_hyp, su2_r2):
    F = surf_hyp.n_faces
    zero_mu = Beltrami(np.zeros(F, dtype=complex))
    zero_nu = BundleCochain(np.zeros((F, 2, 2), dtype=complex), (0, 1))
    v = random_tangent(surf_hyp, su2_r2, seed=1)
    assert var.positivity_certificate(zero_mu, v.nu, surf_hyp, su2_r2) == (0.0, 0.0, 0.0)
    a, b, t = var.positivity_certificate(v.mu, zero_nu, surf_hyp, su2_r2)
    assert a <= 1e-20 and b == 0.0 and t <= 1e-20


def test_positivity_random_presets(surf_hyp, su2_r2):
    for seed in range(8):
        va = random_tangent(surf_hyp, su2_r2, seed=500 + seed)
        vb = random_tangent(surf_hyp, su2_r2, seed=600 + seed)
        a, b, total = var.positivity_certificate(vb.mu, va.nu, surf_hyp, su2_r2)
        assert a >= -1e-12 * max(total, 1.0)
        assert b > 0.0
        assert total > 0.0


def test_positivity_matches_restricted_difference(surf_hyp, su2_r2):
    va = random_tangent(surf_hyp, su2_r2, seed=71)
    vb = random_tangent(surf_hyp, su2_r2, seed=72)
    nu1, mu2 = va.nu, vb.mu
    a, b, total = var.positivity_certificate(mu2, nu1, surf_hyp, su2_r2)
    F = surf_hyp.n_faces
    zmu = Beltrami(np.zeros(F, dtype=complex))
    znu = BundleCochain(np.zeros((F, 2, 2), dtype=complex), (0, 1))
    v1 = TangentVector(zmu, nu1, harmonic=True)
    v2 = TangentVector(mu2, znu, harmonic=True)
    dif = var.difference_report(v1, v2, v2, v1, surf_hyp, su2_r2)
    assert abs(dif.total.imag) <= 1e-10 * max(abs(dif.total.real), 1e-30)
    assert abs(dif.total - total) <= 1e-10 * max(abs(total), 1.0)


def test_term_a_nonnegative_for_arbitrary_inputs(surf_hyp, su2_r2, rng):
    # PSD solve guarantees the sign even off the harmonic subspace
    F = surf_hyp.n_faces
    for _ in range(5):
        mu = Beltrami(rng.standard_normal(F) + 1j * rng.standard_normal(F))
        nu = BundleCochain(
            rng.standard_normal((F, 2, 2)) + 1j * rng.standard_normal((F, 2, 2)), (0, 1)
        )
        a, b, _ = var.positivity_certificate(mu, nu, surf_hyp, su2_r2)
        assert a >= -1e-12 * max(a + b, 1.0) and b >= 0.0


# -- reports -------------------------------------------------------------------


def test_report_json_schema(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 17)
    rep = var.second_variation_universal(*vs, surf_hyp, su2_r2)
    d = rep.to_json_dict()
    blob = json.dumps(d, sort_keys=True)
    assert set(d) == {
        "system",
        "terms",
        "total",
        "inputs_digest",
        "inputs_manifest",
        "conventions_digest",
        "solver_stats",
    }
    for t in d["terms"]:
        assert set(t) == {"name", "re", "im"}
    assert d["inputs_manifest"]["harmonic"] == [True] * 4
    assert len(d["inputs_manifest"]["mu_norms"]) == 4
    assert json.loads(blob) == d


def test_report_deterministic(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 23)
    r1 = var.second_variation_universal(*vs, surf_hyp, su2_r2)
    r2 = var.second_variation_universal(*vs, surf_hyp, su2_r2)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )


# -- internal structure ----------------------------------------------------------


def test_operator_variation_adjoint_pair(surf_hyp, su2_r2, rng):
    # the (0,1)-side variation is minus the exact adjoint of the
    # 0-cochain-side variation, which is what makes the Hermitian
    # pairing of the solve-based terms exact
    ws = var._Workspace(surf_hyp, su2_r2)
    v = random_tangent(surf_hyp, su2_r2, seed=77)
    V, F = surf_hyp.n_vertices, surf_hyp.n_faces
    f = rng.standard_normal((V, 2, 2)) + 1j * rng.standard_normal((V, 2, 2))
    a = rng.standard_normal((F, 2, 2)) + 1j * rng.standard_normal((F, 2, 2))
    lhs = np.sum(ws.cx.w1 * ws.dD(v, f).reshape(-1) * np.conj(a.reshape(-1)))
    rhs = np.sum(ws.cx.w0 * f.reshape(-1) * np.conj(ws.xi(v, a).reshape(-1)))
    assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_gauge_potential_conjugation_symmetry(surf_hyp, su2_r2):
    # G(a,b) and G(b,a) are pointwise conjugate transposes; this is the
    # discrete content of differentiating a Hermitian quantity
    ws = var._Workspace(surf_hyp, su2_r2)
    va = random_tangent(surf_hyp, su2_r2, seed=81)
    vb = random_tangent(surf_hyp, su2_r2, seed=82)
    g_ab = ws.gauge_potential(va, vb, "ab")
    g_ba = ws.gauge_potential(vb, va, "ba")
    flip = np.conj(np.swapaxes(g_ba, 1, 2))
    assert np.linalg.norm(g_ab - flip) <= 1e-10 * np.linalg.norm(g_ab)


def test_solver_stats_log_kernel_projection(surf_hyp, su2_r2):
    vs = quad(surf_hyp, su2_r2, 19)
    rep = var.second_variation_universal(*vs, surf_hyp, su2_r2)
    assert len(rep.solver_stats) == 5
    for st in rep.solver_stats:
        assert {"term", "kernel_removed", "residual", "method", "factor_reused"} <= set(st)
        assert "iterations" not in st
        assert st["method"] == "splu"
    # every solve after the first of a report reuses one factorization
    assert all(st["factor_reused"] for st in rep.solver_stats[1:])


def test_solver_stats_factor_reuse_on_fresh_complex(surf_hyp, su2_r2, rng):
    cx = endo_complex(surf_hyp, su2_r2.transport, bnd._covariant_constant_columns(su2_r2))
    h = rng.standard_normal(cx.w0.shape[0]) + 1j * rng.standard_normal(cx.w0.shape[0])
    reused = [cx.delta0_solve(h, which=w)[1]["factor_reused"] for w in ("sym", "sym", "dbar")]
    assert reused == [False, True, False]


def test_genus3_pipeline(rng):
    # the whole stack runs at higher genus with the padded preset
    from modulilab import bundle as bnd2
    from modulilab.surface import build_polygon_gluing, equip_conformal, refine

    m0 = build_polygon_gluing(3)
    c0 = bnd2.su2_preset(m0)
    m1 = refine(m0)
    c1 = bnd2.refine_cocycle(c0, m1)
    S = equip_conformal(m1, layout="stored", density="hyperbolic")
    assert bnd2.is_irreducible(c1) == (True, 1)
    assert oracle.kernel_dimension_dense(oracle.materialize("laplacian", c1, S)) == 1
    vs = [random_tangent(S, c1, seed=i) for i in range(4)]
    uni = var.second_variation_universal(*vs, S, c1)
    fib = var.second_variation_fibered(*vs, S, c1)
    dif = var.difference_report(*vs, S, c1)
    assert abs(dif.total - (uni.total - fib.total)) <= 1e-10 * max(abs(uni.total), 1.0)
    sw = var.second_variation_universal(vs[1], vs[0], vs[3], vs[2], S, c1)
    assert abs(uni.total - np.conj(sw.total)) <= 1e-8 * abs(uni.total)
    a, b, tot = var.positivity_certificate(vs[1].mu, vs[0].nu, S, c1)
    assert a >= 0 and b > 0 and tot > 0


def test_gauge_naturality(fan2_r1, surf_hyp_r1, su2_r1, rng):
    # a vertex-wise unitary gauge transform of the cocycle, with tangent
    # data conjugated into the new face frames, must leave the metric and
    # the second variation invariant; this exercises every frame convention
    from modulilab.bundle import UnitaryCocycle, validate_cocycle, operators

    mesh = fan2_r1
    V, n = mesh.n_vertices, 2
    g = np.zeros((V, n, n), dtype=complex)
    for v in range(V):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a)
        g[v] = q
    U2 = np.zeros_like(su2_r1.transport)
    for h in range(mesh.n_half_edges):
        U2[h] = g[mesh.head(h)] @ su2_r1.transport[h] @ g[int(mesh.origin[h])].conj().T
    for h in range(mesh.n_half_edges):  # keep twins exact inverses
        t = int(mesh.twin[h])
        if h < t:
            U2[t] = U2[h].conj().T
    moved = UnitaryCocycle(
        mesh=mesh, rank=n, degree=1, transport=U2, marked_face=su2_r1.marked_face
    )
    validate_cocycle(moved)

    # face frames conjugate by the gauge at the lowest-index corner
    anchor = np.array(
        [mesh.face_vertices(f)[int(np.argmin(mesh.face_vertices(f)))] for f in range(mesh.n_faces)]
    )
    Gf = g[anchor]

    def push(v):
        nu2 = np.einsum("fab,fbc,fdc->fad", Gf, v.nu.values, np.conj(Gf))
        return TangentVector(v.mu, BundleCochain(nu2, (0, 1)), harmonic=True)

    vs = [random_tangent(surf_hyp_r1, su2_r1, seed=40 + i) for i in range(4)]
    pushed = [push(v) for v in vs]
    g_old = var.metric_g(vs[0], vs[1], surf_hyp_r1, su2_r1)
    g_new = var.metric_g(pushed[0], pushed[1], surf_hyp_r1, moved)
    assert abs(g_old - g_new) <= 1e-10 * abs(g_old)
    t_old = var.second_variation_universal(*vs, surf_hyp_r1, su2_r1).total
    t_new = var.second_variation_universal(*pushed, surf_hyp_r1, moved).total
    assert abs(t_old - t_new) <= 1e-8 * abs(t_old)
    f_old = var.second_variation_fibered(*vs, surf_hyp_r1, su2_r1).total
    f_new = var.second_variation_fibered(*pushed, surf_hyp_r1, moved).total
    assert abs(f_old - f_new) <= 1e-8 * abs(f_old)


# -- projector derivative --------------------------------------------------------


def test_projector_derivative_zero_perturbation(surf_hyp_r1, su2_r1):
    F, V = surf_hyp_r1.n_faces, surf_hyp_r1.n_vertices
    A = np.zeros((F * 4, V * 4))
    assert var.projector_derivative_check(surf_hyp_r1, su2_r1, perturbation=A) == 0.0


def test_projector_derivative_small_error(surf_hyp_r1, su2_r1):
    err = var.projector_derivative_check(surf_hyp_r1, su2_r1, h_step=1e-4, seed=0)
    assert err <= 1e-6


def test_projector_derivative_slope(surf_hyp_r1, su2_r1):
    sweep = var.projector_derivative_sweep(surf_hyp_r1, su2_r1, steps=(1e-3, 1e-4, 1e-5), seed=0)
    assert abs(sweep["slope"] - 2.0) <= 0.2


def test_projector_derivative_sweep_matches_single_steps(surf_hyp_r1, su2_r1):
    # the sweep shares one frame across its steps; each error must equal
    # the one a separate check at that step computes from scratch
    steps = (1e-3, 1e-4, 1e-5)
    sweep = var.projector_derivative_sweep(surf_hyp_r1, su2_r1, steps=steps, seed=3)
    for h in steps:
        single = var.projector_derivative_check(surf_hyp_r1, su2_r1, h_step=h, seed=3)
        assert abs(sweep["errors"][h] - single) <= 1e-12 * single


def test_projector_derivative_sweep_honours_dense_cap(surf_hyp_r1, su2_r1):
    with pytest.raises(ValueError, match="dense"):
        var.projector_derivative_sweep(surf_hyp_r1, su2_r1, steps=(1e-3, 1e-4), dense_cap=10)


@pytest.mark.parametrize("steps", [(1e-3,), (1e-4, 1e-4), (1e-3, 0.0), (1e-3, -1e-4)])
def test_projector_derivative_sweep_needs_two_distinct_positive_steps(surf_hyp_r1, su2_r1, steps):
    with pytest.raises(ValueError, match="two distinct positive"):
        var.projector_derivative_sweep(surf_hyp_r1, su2_r1, steps=steps)


def test_projector_derivative_harmonic_orthogonality(surf_hyp_r1, su2_r1, rng):
    # dP applied to a harmonic form, paired against a harmonic form,
    # vanishes (the family fixes dbar_star on harmonics at first order)
    cx = bnd.operators(surf_hyp_r1, su2_r1)
    s0, s1 = np.sqrt(cx.w0), np.sqrt(cx.w1)
    D = (cx.dbar.toarray() * (1.0 / s0)[None, :]) * s1[:, None]
    lam, V = np.linalg.eigh(D.conj().T @ D)
    kdim = int(np.sum(lam <= 1e-10 * lam[-1]))
    K = V[:, :kdim]
    inv = np.where(lam > 1e-10 * lam[-1], 1.0 / np.maximum(lam, 1e-300), 0.0)
    pinv = (V * inv[None, :]) @ V.conj().T
    P = np.eye(D.shape[0]) - D @ pinv @ D.conj().T
    A = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
    A -= (A @ K) @ K.conj().T
    dP = -P @ A @ pinv @ D.conj().T - D @ pinv @ A.conj().T @ P
    nu = P @ (rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0]))
    beta = P @ (rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0]))
    val = np.vdot(beta, dP @ nu)
    scale = np.linalg.norm(dP, 2) * np.linalg.norm(nu) * np.linalg.norm(beta)
    assert abs(val) <= 1e-10 * scale
