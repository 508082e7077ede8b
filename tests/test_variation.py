import json

import numpy as np
import pytest

from modulilab import bundle as bnd
from modulilab import oracle
from modulilab import variation as var
from modulilab._complexes import ad, ad_star, endo_complex
from modulilab.calculus import beltrami_d_hol
from modulilab.bundle import Scene
from modulilab.cli import TOLERANCES
from modulilab.surface import equip_conformal

from conftest import frame_pinv, one_tangent


def quad(scene, base_seed, **kw):
    return [one_tangent(scene, base_seed + i, **kw) for i in range(4)]


def zero_tv(scene):
    F, n = scene.surface.n_faces, scene.cocycle.rank
    return np.zeros(F, dtype=complex), np.zeros((F, n, n), dtype=complex)


def scale_tv(v, lam):
    mu, nu = v
    return lam * mu, lam * nu


# -- metric ------------------------------------------------------------------


def test_metric_positive_definite(su2_scene):
    for seed in range(5):
        v = one_tangent(su2_scene, seed)
        g = var.metric_g(v, v, su2_scene)
        assert g.real > 0 and abs(g.imag) <= 1e-12 * g.real


def test_metric_hermitian(su2_scene):
    v1 = one_tangent(su2_scene, 1)
    v2 = one_tangent(su2_scene, 2)
    g12 = var.metric_g(v1, v2, su2_scene)
    g21 = var.metric_g(v2, v1, su2_scene)
    assert abs(g12 - np.conj(g21)) <= 1e-12 * max(abs(g12), 1.0)


def test_metric_blocks_orthogonal(su2_scene):
    v1 = one_tangent(su2_scene, 3)
    v2 = one_tangent(su2_scene, 4)
    zmu, znu = zero_tv(su2_scene)
    mu_only = (v1[0], znu)
    nu_only = (zmu, v2[1])
    assert var.metric_g(mu_only, nu_only, su2_scene) == 0.0


# -- first variation ----------------------------------------------------------


def test_first_variation_zero_direction_nu(su2_scene):
    v1 = one_tangent(su2_scene, 1)
    v2 = one_tangent(su2_scene, 2)
    v_dir = (v1[0], zero_tv(su2_scene)[1])
    d, db = var.first_variation(v_dir, v1, v2, su2_scene)
    assert d == 0.0 and db == 0.0


def test_first_variation_hermitian_family(su2_scene):
    vs = quad(su2_scene, 50)
    d_eps, d_eps_bar = var.first_variation(vs[0], vs[1], vs[2], su2_scene)
    d_sw, _ = var.first_variation(vs[0], vs[2], vs[1], su2_scene)
    assert abs(d_eps_bar - np.conj(d_sw)) <= 1e-12 * max(abs(d_eps_bar), 1e-6)


# -- second variations ---------------------------------------------------------


def test_report_sums_terms(su2_scene):
    vs = quad(su2_scene, 7)
    for rep in var.evaluate_quadruple(*vs, su2_scene).systems:
        s = complex(sum(v for _, v in rep.terms))
        assert abs(rep.total - s) <= 1e-12 * max(abs(s), 1.0)


def test_term_counts(su2_scene):
    vs = quad(su2_scene, 7)
    q = var.evaluate_quadruple(*vs, su2_scene)
    assert [len(rep.terms) for rep in q.systems] == [10, 12, 6]
    assert [rep.coordinate_system for rep in q.systems] == ["universal", "fibered", "difference"]


def test_zero_inputs_zero(su2_scene):
    z = zero_tv(su2_scene)
    q = var.evaluate_quadruple(z, z, z, z, su2_scene)
    assert q.universal.total == 0.0
    assert q.difference.total == 0.0


def test_rank1_mu_zero_vanishes(triv1_scene):
    vs = quad(triv1_scene, 3, mu_scale=0.0)
    q = var.evaluate_quadruple(*vs, triv1_scene)
    assert max(abs(v) for _, v in q.universal.terms + q.fibered.terms) <= 1e-12


def test_hermitian_symmetry_both_systems(su2_scene):
    for seed in (0, 11):
        vs = quad(su2_scene, 200 + seed)
        q = var.evaluate_quadruple(vs[0], vs[1], vs[2], vs[3], su2_scene)
        q_sw = var.evaluate_quadruple(vs[1], vs[0], vs[3], vs[2], su2_scene)
        for a, b in ((q.universal.total, q_sw.universal.total), (q.fibered.total, q_sw.fibered.total)):
            assert abs(a - np.conj(b)) <= 1e-8 * max(abs(a), 1e-6)


def test_shared_terms_equal(su2_scene):
    vs = quad(su2_scene, 5)
    q = var.evaluate_quadruple(*vs, su2_scene)
    uni, fib = dict(q.universal.terms), dict(q.fibered.terms)
    shared = set(uni) & set(fib)
    assert len(shared) == 8
    scale = max(abs(v) for v in uni.values())
    for name in shared:
        assert abs(uni[name] - fib[name]) <= 1e-10 * scale


def test_evaluate_quadruple_matches_separate_evaluations(su2_scene):
    # the reference: each term right-hand side solved on its own as a
    # vector, and each system assembled from its terms as defined
    vs = quad(su2_scene, 17)
    q = var.evaluate_quadruple(*vs, su2_scene)
    cx = su2_scene.endo
    y = {label: cx.delta0_solve(h)[0] for label, h in zip(var._TERM_SOLVES, var._term_sources(su2_scene, vs))}
    shared, extra = var._terms(su2_scene, vs, y)
    removed = var._REMOVED_IN_FIBERED
    fresh = [
        shared,
        [t for t in shared if t[0] not in removed] + extra,
        [(f"removed_{n}", v) for n, v in shared if n in removed] + [(f"added_{n}", -v) for n, v in extra],
    ]
    for rep, terms in zip(q.systems, fresh):
        scale = max(abs(v) for _, v in rep.terms)
        ref = dict(terms)
        assert [n for n, _ in rep.terms] == list(ref)
        assert max(abs(v - ref[n]) for n, v in rep.terms) <= 1e-12 * scale
        assert abs(rep.total - sum(ref.values())) <= 1e-12 * scale
    # one block solve whose columns are the term labels: the five
    # universal ones, then the four fibered-only ones
    stats = q.solver_stats
    assert stats["terms"][:5] == ["gauge_12", "gauge_21", "opvar_proj", "opvar_mu3", "opvar_mu4"]
    assert stats["terms"][5:] == [name for name, _ in extra]
    uni, fib, dif = q.systems
    assert dif.total == pytest.approx(uni.total - fib.total, rel=1e-12, abs=1e-12 * abs(uni.total))


def test_multilinearity(su2_scene):
    vs = quad(su2_scene, 31)
    lam = 0.6 + 0.9j
    base = var.evaluate_quadruple(*vs, su2_scene).universal.total
    expect = [lam, np.conj(lam), lam, np.conj(lam)]
    for slot in range(4):
        args = list(vs)
        args[slot] = scale_tv(args[slot], lam)
        scaled = var.evaluate_quadruple(*args, su2_scene).universal.total
        assert abs(scaled - expect[slot] * base) <= 1e-10 * abs(base)


def test_requires_harmonic_data(su2_scene, rng):
    # harmonicity is read off the data: |dbar* x| against |dbar*| |x|,
    # for mu on the tangent complex and nu on the End(E) complex
    vs = quad(su2_scene, 7)
    (mu, nu), rest = vs[0], vs[1:]
    F = su2_scene.surface.n_faces
    raw_mu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    raw_nu = rng.standard_normal((F, 2, 2)) + 1j * rng.standard_normal((F, 2, 2))
    nan_nu = nu.copy()
    nan_nu[3, 0, 1] = np.nan
    for bad, what in (((raw_mu, nu), "mu"), ((mu, raw_nu), "nu"), ((mu, nan_nu), "nu")):
        with pytest.raises(var.VariationInputError, match=f"slot 1: {what} is not harmonic"):
            var.evaluate_quadruple(bad, *rest, su2_scene)
    # the slots are checked as one block, but the first failing slot in
    # slot order is named: slot 1 nu before slot 2 mu
    with pytest.raises(var.VariationInputError, match="slot 1: nu is not harmonic"):
        var.evaluate_quadruple((mu, raw_nu), (raw_mu, rest[0][1]), *rest[1:], su2_scene)
    # the defect is scale-free: zero and rescaled harmonic tangents pass
    z = zero_tv(su2_scene)
    var.evaluate_quadruple(z, z, z, z, su2_scene)
    var.evaluate_quadruple((1e-9 * mu, 1e9 * nu), *rest, su2_scene)


def test_harmonic_defect_scale(su2_scene, rng):
    # projected tangents read at roundoff, raw Gaussian data at order one
    F = su2_scene.surface.n_faces
    tan, endo = su2_scene.tangent, su2_scene.endo

    def defect(cx, x):
        return var._harmonic_defect(cx, x, abs(cx.dbar))

    for seed in range(4):
        mu, nu = one_tangent(su2_scene, seed)
        assert defect(tan, mu) <= 1e-14
        assert defect(endo, nu.reshape(-1)) <= 1e-14
    raw = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    assert defect(tan, raw) >= 0.1
    assert defect(tan, np.zeros(F, dtype=complex)) == 0.0


def test_uniform_density_runs(surf_uni, fan2_r2):
    scene = Scene(surf_uni, bnd.trivial_cocycle(fan2_r2, 2))
    vs = quad(scene, 9)
    uni, fib, dif = var.evaluate_quadruple(*vs, scene).systems
    assert abs(dif.total - (uni.total - fib.total)) <= 1e-10 * max(abs(uni.total), 1.0)


# -- difference and positivity -------------------------------------------------


def test_difference_bookkeeping(su2_scene):
    vs = quad(su2_scene, 13)
    dif = var.evaluate_quadruple(*vs, su2_scene).difference
    added = [n for n, _ in dif.terms if n.startswith("added_")]
    removed = [n for n, _ in dif.terms if n.startswith("removed_")]
    assert len(added) == 4 and len(removed) == 2


def test_difference_reconciles(su2_scene):
    for seed in range(3):
        vs = quad(su2_scene, 400 + seed)
        uni, fib, dif = var.evaluate_quadruple(*vs, su2_scene).systems
        scale = max(abs(uni.total), abs(fib.total), 1.0)
        assert abs(dif.total - (uni.total - fib.total)) <= 1e-10 * scale


def test_difference_zero_inputs(su2_scene):
    z = zero_tv(su2_scene)
    assert var.evaluate_quadruple(z, z, z, z, su2_scene).difference.total == 0.0


def test_positivity_zero_inputs(su2_scene):
    F = su2_scene.surface.n_faces
    zero_mu = np.zeros(F, dtype=complex)
    zero_nu = np.zeros((F, 2, 2), dtype=complex)
    mu, nu = one_tangent(su2_scene, 1)
    assert var.positivity_certificate(zero_mu, nu, su2_scene) == (0.0, 0.0, 0.0)
    a, b, t = var.positivity_certificate(mu, zero_nu, su2_scene)
    assert a <= 1e-20 and b == 0.0 and t <= 1e-20


def test_positivity_random_presets(su2_scene):
    for seed in range(8):
        va = one_tangent(su2_scene, 500 + seed)
        vb = one_tangent(su2_scene, 600 + seed)
        a, b, total = var.positivity_certificate(vb[0], va[1], su2_scene)
        assert a >= -1e-12 * max(total, 1.0)
        assert b > 0.0
        assert total > 0.0


def test_positivity_matches_restricted_difference(su2_scene):
    va = one_tangent(su2_scene, 71)
    vb = one_tangent(su2_scene, 72)
    nu1, mu2 = va[1], vb[0]
    a, b, total = var.positivity_certificate(mu2, nu1, su2_scene)
    zmu, znu = zero_tv(su2_scene)
    v1 = (zmu, nu1)
    v2 = (mu2, znu)
    dif = var.evaluate_quadruple(v1, v2, v2, v1, su2_scene).difference
    assert abs(dif.total.imag) <= 1e-10 * max(abs(dif.total.real), 1e-30)
    assert abs(dif.total - total) <= 1e-10 * max(abs(total), 1.0)


def test_term_a_nonnegative_for_arbitrary_inputs(su2_scene, rng):
    # PSD solve guarantees the sign even off the harmonic subspace
    F = su2_scene.surface.n_faces
    for _ in range(5):
        mu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
        nu = rng.standard_normal((F, 2, 2)) + 1j * rng.standard_normal((F, 2, 2))
        a, b, _ = var.positivity_certificate(mu, nu, su2_scene)
        assert a >= -1e-12 * max(a + b, 1.0) and b >= 0.0


# -- reports -------------------------------------------------------------------


def test_report_json_schema(su2_scene):
    vs = quad(su2_scene, 17)
    d = var.evaluate_quadruple(*vs, su2_scene).to_json_dict()
    blob = json.dumps(d, sort_keys=True)
    assert set(d) == {"universal", "fibered", "difference", "solver_stats"}
    for system in ("universal", "fibered", "difference"):
        assert set(d[system]) == {"terms", "total"}
        for t in d[system]["terms"]:
            assert set(t) == {"name", "re", "im"}
    stats = d["solver_stats"]
    assert set(stats) == {"terms", "kernel_removed", "residual", "method", "factor_reused"}
    assert stats["terms"] == list(var._TERM_SOLVES)
    assert json.loads(blob) == d


def test_report_deterministic(su2_scene):
    vs = quad(su2_scene, 23)
    r1 = var.evaluate_quadruple(*vs, su2_scene)
    r2 = var.evaluate_quadruple(*vs, su2_scene)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )


# -- internal structure ----------------------------------------------------------


def test_operator_variation_adjoint_pair(su2_scene, rng):
    # the (0,1)-side variation is minus the exact adjoint of the
    # 0-cochain-side variation, which is what makes the Hermitian
    # pairing of the solve-based terms exact
    cx = su2_scene.endo
    v = one_tangent(su2_scene, 77)
    V, F = su2_scene.surface.n_vertices, su2_scene.surface.n_faces
    f = rng.standard_normal((V, 2, 2)) + 1j * rng.standard_normal((V, 2, 2))
    a = rng.standard_normal((F, 2, 2)) + 1j * rng.standard_normal((F, 2, 2))
    lhs = np.sum(cx.w1 * var._dD(cx, v, f).reshape(-1) * np.conj(a.reshape(-1)))
    rhs = np.sum(cx.w0 * f.reshape(-1) * np.conj(var._xi(cx, v, a).reshape(-1)))
    assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_gauge_potential_conjugation_symmetry(su2_scene):
    # G(a,b) and G(b,a) are pointwise conjugate transposes; this is the
    # discrete content of differentiating a Hermitian quantity
    cx, S = su2_scene.endo, su2_scene.surface
    va = one_tangent(su2_scene, 81)
    vb = one_tangent(su2_scene, 82)
    (mua, nua), (mub, nub) = va, vb
    dmu_a, dmu_b = beltrami_d_hol(mua, su2_scene), beltrami_d_hol(mub, su2_scene)
    g_ab = cx.delta0_solve(var._gauge_source(cx, S, nua, nub, dmu_a, dmu_b))[0]
    g_ba = cx.delta0_solve(var._gauge_source(cx, S, nub, nua, dmu_b, dmu_a))[0]
    flip = np.conj(np.swapaxes(g_ba, 1, 2))
    assert np.linalg.norm(g_ab - flip) <= 1e-10 * np.linalg.norm(g_ab)


# each pointwise End(E) helper as a function of its block arguments, given the
# complex, the surface and one tangent v, with the sites of each block
# argument: "V" vertex values, "F" face values, "f" per-face scalars
BLOCK_HELPERS = {
    "ad": (lambda cx, S, v, f: ad(cx, v[1], f), "V"),
    "ad_star": (lambda cx, S, v, alpha: ad_star(cx, v[1], alpha), "F"),
    "_dD": (lambda cx, S, v, f: var._dD(cx, v, f), "V"),
    "_xi": (lambda cx, S, v, alpha: var._xi(cx, v, alpha), "F"),
    "_gauge_source": (lambda cx, S, v, *pairs: var._gauge_source(cx, S, *pairs), "FFff"),
}


@pytest.fixture(scope="module")
def r1_centers(su2_scene_r1, surf_hyp_r1):
    return {"su2": su2_scene_r1, "trivial3": Scene(surf_hyp_r1, bnd.trivial_cocycle(surf_hyp_r1.mesh, 3))}


@pytest.mark.parametrize("center", ["su2", "trivial3"])
@pytest.mark.parametrize("helper", list(BLOCK_HELPERS))
def test_pointwise_helpers_answer_in_the_block_layout(r1_centers, center, helper, rng):
    # a (sites, n, n, k) block is the stacked per-column calls, bit for bit,
    # and one column keeps its (sites, n, n) shape
    scene = r1_centers[center]
    cx, S, n, k = scene.endo, scene.surface, scene.cocycle.rank, 6
    fn, kinds = BLOCK_HELPERS[helper]
    sites = {"V": (S.n_vertices, n, n), "F": (S.n_faces, n, n), "f": (S.n_faces,)}
    blocks = [rng.standard_normal(sites[c] + (k,)) + 1j * rng.standard_normal(sites[c] + (k,)) for c in kinds]
    v = one_tangent(scene, 5)
    out = fn(cx, S, v, *blocks)
    columns = [fn(cx, S, v, *(b[..., j] for b in blocks)) for j in range(k)]
    assert columns[0].ndim == 3 and columns[0].shape == out.shape[:-1]
    assert np.array_equal(out, np.stack(columns, axis=-1))


def test_solver_stats_log_kernel_projection(su2_scene):
    vs = quad(su2_scene, 19)
    rep = var.evaluate_quadruple(*vs, su2_scene)
    # the one block solve of the nine term columns
    st = rep.solver_stats
    assert {"terms", "kernel_removed", "residual", "method", "factor_reused"} <= set(st)
    assert st["terms"] == list(var._TERM_SOLVES)
    assert "iterations" not in st
    assert st["method"] == "splu"
    assert isinstance(st["residual"], float) and 0.0 <= st["residual"] <= 1e-8
    assert isinstance(st["kernel_removed"], float)
    # the term solve reuses the factorization of the tangents' projection
    assert st["factor_reused"]


def test_failed_term_solve_names_its_term(su2_scene, monkeypatch):
    # tangents sampled at the shipped tolerance; with no residual allowed,
    # the first term solve fails, and the error names that term
    from modulilab import _complexes

    vs = quad(su2_scene, 0)
    monkeypatch.setattr(_complexes, "SOLVE_RTOL", 0.0)
    with pytest.raises(_complexes.SolverError) as err:
        var.evaluate_quadruple(*vs, su2_scene)
    assert str(err.value).startswith("gauge_12: solve relative residual ")
    assert str(err.value).endswith(" exceeds 0e+00")
    assert err.value.column == 0


def test_failed_later_column_names_its_term(su2_scene, monkeypatch):
    # a non-finite source in the opvar_mu4 column alone fails only that
    # column of the block solve, and the error names that term
    from modulilab import _complexes

    vs = quad(su2_scene, 0)
    sources = var._term_sources

    def poisoned(scene, vectors):
        for label, h in zip(var._TERM_SOLVES, sources(scene, vectors)):
            yield np.full_like(h, np.nan) if label == "opvar_mu4" else h

    monkeypatch.setattr(var, "_term_sources", poisoned)
    with pytest.raises(_complexes.SolverError) as err:
        var.evaluate_quadruple(*vs, su2_scene)
    assert str(err.value) == "opvar_mu4: solve relative residual nan exceeds 1e-08"
    assert err.value.column == var._TERM_SOLVES.index("opvar_mu4")


def test_failed_positivity_solve_names_term_a(su2_scene, monkeypatch):
    # the one solve of positivity_certificate is term_a's, and its failure
    # says so, keeping the failing column
    from modulilab import _complexes

    mu2, nu1 = one_tangent(su2_scene, 72)[0], one_tangent(su2_scene, 71)[1]

    def failing(self, h):
        raise _complexes.SolverError("solve relative residual nan exceeds 1e-08", column=0)

    monkeypatch.setattr(_complexes.DolbeaultComplex, "delta0_solve", failing)
    with pytest.raises(_complexes.SolverError) as err:
        var.positivity_certificate(mu2, nu1, su2_scene)
    assert str(err.value) == "term_a: solve relative residual nan exceeds 1e-08"
    assert err.value.column == 0


def test_solver_stats_factor_reuse_on_fresh_complex(su2_scene, rng, monkeypatch):
    # one LU per complex, shared by every solve and the harmonic projector
    from modulilab import _complexes

    cx = endo_complex(su2_scene.surface, su2_scene.cocycle.transport, su2_scene.endo.commutant)
    factored, splu = [], _complexes.spla.splu
    monkeypatch.setattr(_complexes.spla, "splu", lambda A, **kw: factored.append(A.shape) or splu(A, **kw))
    h = rng.standard_normal(cx.w0.shape[0]) + 1j * rng.standard_normal(cx.w0.shape[0])
    reused = [cx.delta0_solve(h)[1]["factor_reused"] for _ in range(3)]
    assert reused == [False, True, True]
    cx.harmonic_project(rng.standard_normal(cx.w1.shape[0]) + 0j)
    assert len(factored) == 1


def test_genus3_pipeline(rng):
    # the whole stack runs at higher genus with the padded preset
    from modulilab import bundle as bnd2
    from modulilab.surface import build_polygon_gluing, equip_conformal

    m0 = build_polygon_gluing(3)
    c0 = bnd2.su2_preset(m0)
    c1 = bnd2.refine_cocycle(c0)
    S = equip_conformal(c1.mesh, layout="stored", density="hyperbolic")
    assert bnd2._commutant(c1).shape[1] == 1
    scene = Scene(S, c1)
    assert oracle.DenseFrame(scene.endo).kernel.shape[1] == 1
    vs = [one_tangent(scene, i) for i in range(4)]
    uni, fib, dif = var.evaluate_quadruple(*vs, scene).systems
    assert abs(dif.total - (uni.total - fib.total)) <= 1e-10 * max(abs(uni.total), 1.0)
    sw = var.evaluate_quadruple(vs[1], vs[0], vs[3], vs[2], scene).universal
    assert abs(uni.total - np.conj(sw.total)) <= 1e-8 * abs(uni.total)
    a, b, tot = var.positivity_certificate(vs[1][0], vs[0][1], scene)
    assert a >= 0 and b > 0 and tot > 0


def test_gauge_naturality(fan2_r1, surf_hyp_r1, su2_r1, rng):
    # a vertex-wise unitary gauge transform of the cocycle, with tangent
    # data conjugated into the new face frames, must leave the metric and
    # the second variation invariant; this exercises every frame convention
    from modulilab.bundle import UnitaryCocycle, validate_cocycle
    from modulilab.surface import next_index

    mesh = fan2_r1
    V, n = mesh.n_vertices, 2
    g = np.zeros((V, n, n), dtype=complex)
    for v in range(V):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a)
        g[v] = q
    U2 = np.zeros_like(su2_r1.transport)
    head = mesh.origin[next_index(mesh.n_half_edges)]
    for h in range(mesh.n_half_edges):
        U2[h] = g[head[h]] @ su2_r1.transport[h] @ g[int(mesh.origin[h])].conj().T
    for h in range(mesh.n_half_edges):  # keep twins exact inverses
        t = int(mesh.twin[h])
        if h < t:
            U2[t] = U2[h].conj().T
    moved = UnitaryCocycle(
        mesh=mesh, rank=n, degree=1, transport=U2, marked_face=su2_r1.marked_face
    )
    validate_cocycle(moved)

    # face frames conjugate by the gauge at the lowest-index corner
    anchor = mesh.origin.reshape(-1, 3).min(axis=1)
    Gf = g[anchor]

    def push(v):
        mu, nu = v
        return mu, np.einsum("fab,fbc,fdc->fad", Gf, nu, np.conj(Gf))

    old, new = Scene(surf_hyp_r1, su2_r1), Scene(surf_hyp_r1, moved)
    vs = [one_tangent(old, 40 + i) for i in range(4)]
    pushed = [push(v) for v in vs]
    g_old = var.metric_g(vs[0], vs[1], old)
    g_new = var.metric_g(pushed[0], pushed[1], new)
    assert abs(g_old - g_new) <= 1e-10 * abs(g_old)
    q_old = var.evaluate_quadruple(*vs, old)
    q_new = var.evaluate_quadruple(*pushed, new)
    t_old, t_new = q_old.universal.total, q_new.universal.total
    assert abs(t_old - t_new) <= 1e-8 * abs(t_old)
    f_old, f_new = q_old.fibered.total, q_new.fibered.total
    assert abs(f_old - f_new) <= 1e-8 * abs(f_old)


# -- projector derivative --------------------------------------------------------


def test_projector_derivative_small_error(su2_scene_r1):
    sweep = var.projector_derivative_sweep(su2_scene_r1, seed=0)
    assert sweep["errors"][1e-4] <= 1e-6


def test_projector_derivative_slope(su2_scene_r1):
    sweep = var.projector_derivative_sweep(su2_scene_r1, seed=0)
    assert abs(sweep["slope"] - 2.0) <= 0.2


def test_projector_derivative_sweep_builds_no_dense_frame(su2_scene_r1, monkeypatch):
    # the sweep takes no dense_cap: it must pass both gates without the dense frame
    def refuse(*args, **kwargs):
        raise AssertionError("the projector sweep built a dense frame")

    monkeypatch.setattr(oracle.DenseFrame, "__init__", refuse)
    sweep = var.projector_derivative_sweep(su2_scene_r1, seed=0)
    assert sweep["errors"][var.FD_STEPS[-1]] <= TOLERANCES["fd_error_geometric_at_1e-4"]
    assert abs(sweep["slope"] - 2.0) <= TOLERANCES["loglog_slope_geometric_near_2"]


@pytest.fixture(scope="module")
def su2_pairs(surf_hyp_r1, su2_r1, surf_hyp, su2_r2):
    """(surface, su2 cocycle) of the stored hyperbolic fan at r1-r3."""
    c3 = bnd.refine_cocycle(su2_r2)
    S3 = equip_conformal(c3.mesh, layout="stored", density="hyperbolic")
    return {1: (surf_hyp_r1, su2_r1), 2: (surf_hyp, su2_r2), 3: (S3, c3)}


@pytest.mark.parametrize("refinements", [1, 2, 3])
@pytest.mark.parametrize("bundle", ["su2", "trivial1", "trivial2"])
def test_projector_derivative_geometric_gates(su2_pairs, bundle, refinements):
    # both gates of the command hold for an irreducible center and for
    # reducible ones (trivial rank 2: the kernel does not persist along D(t))
    S, cocycle = su2_pairs[refinements]
    if bundle != "su2":
        cocycle = bnd.trivial_cocycle(S.mesh, int(bundle[-1]))
    sweep = var.projector_derivative_sweep(Scene(S, cocycle), seed=0)
    assert sweep["errors"][var.FD_STEPS[-1]] <= TOLERANCES["fd_error_geometric_at_1e-4"]
    assert abs(sweep["slope"] - 2.0) <= TOLERANCES["loglog_slope_geometric_near_2"]


def test_deformation_matrix_matches_dD(su2_scene, rng):
    # the sparse A of the finite-difference side is the operator variation
    # that the Leibniz side applies through _dD
    cx = su2_scene.endo
    v = one_tangent(su2_scene, 11)
    A = var._deformation_matrix(cx, v)
    f = rng.standard_normal((cx.n_vertices, 2, 2, 8)) + 1j * rng.standard_normal((cx.n_vertices, 2, 2, 8))
    via_dD = var._dD(cx, v, f)
    assert np.linalg.norm(cx.apply(A, f) - via_dD) <= 1e-14 * np.linalg.norm(via_dD)


def test_projector_derivative_harmonic_orthogonality(su2_scene_r1, rng):
    # dP applied to a harmonic form, paired against a harmonic form,
    # vanishes (the family fixes dbar_star on harmonics at first order)
    frame = oracle.DenseFrame(su2_scene_r1.endo)
    D, K, pinv = frame.D, frame.kernel, frame_pinv(frame)
    P = np.eye(D.shape[0]) - D @ pinv @ D.conj().T
    A = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
    A -= (A @ K) @ K.conj().T
    dP = -P @ A @ pinv @ D.conj().T - D @ pinv @ A.conj().T @ P
    nu = P @ (rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0]))
    beta = P @ (rng.standard_normal(D.shape[0]) + 1j * rng.standard_normal(D.shape[0]))
    val = np.vdot(beta, dP @ nu)
    scale = np.linalg.norm(dP, 2) * np.linalg.norm(nu) * np.linalg.norm(beta)
    assert abs(val) <= 1e-10 * scale
