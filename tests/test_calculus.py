"""Scalar calculus as the rank-1 trivial End(E) complex, the conventions
table, the wedge pairing and the Beltrami derivative."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modulilab import bundle as bnd
from modulilab import conventions
from modulilab._complexes import beltrami_complex, geometry
from modulilab.bundle import BundleCochain
from modulilab.calculus import Beltrami, beltrami_d_hol
from modulilab.oracle import torus_surface
from modulilab.surface import equip_conformal, mesh_from_faces
from modulilab.variation import _pair


@pytest.fixture(scope="module")
def torus8():
    return torus_surface(8)


@pytest.fixture(scope="module")
def pillow():
    # two copies of the chart triangle (0, 1, i) glued along all edges
    mesh = mesh_from_faces([(0, 1, 2), (0, 2, 1)], genus=0)
    tri = np.array([0.0, 1.0, 1j])
    object.__setattr__(mesh, "layout", np.array([tri, tri]))
    return equip_conformal(mesh, layout="stored", density="uniform")


def _scalar(values, degree):
    """A scalar field as a rank-1 End(E) cochain."""
    return BundleCochain(np.asarray(values, dtype=complex).reshape(-1, 1, 1), degree)


def _random(rng, count, degree):
    return _scalar(rng.standard_normal(count) + 1j * rng.standard_normal(count), degree)


def test_constant_has_zero_derivative(surf_hyp, triv1_r2):
    f = _scalar(np.full(surf_hyp.n_vertices, 2.3 - 0.7j), "vertex")
    assert np.linalg.norm(bnd.twisted_dbar(f, triv1_r2, surf_hyp).values) <= 1e-12
    assert np.linalg.norm(bnd.twisted_d_hol(f, triv1_r2, surf_hyp).values) <= 1e-12


def test_single_face_chart_gradient(pillow):
    # chart (0, 1, i) with values (0, 1, i): the identity chart function
    c = bnd.trivial_cocycle(pillow.mesh, 1)
    f = _scalar([0.0, 1.0, 1j], "vertex")
    dh = bnd.twisted_d_hol(f, c, pillow).values.reshape(-1)
    db = bnd.twisted_dbar(f, c, pillow).values.reshape(-1)
    assert abs(dh[0] - 1.0) < 1e-14 and abs(db[0]) < 1e-14
    # on the mirror face the same values read as i * conj(z)
    assert abs(db[1] - 1j) < 1e-14 and abs(dh[1]) < 1e-14


def test_adjointness_random(surf_hyp, triv1_r2, rng):
    V, F, c = surf_hyp.n_vertices, surf_hyp.n_faces, triv1_r2
    worst = 0.0
    for _ in range(100):
        f = _random(rng, V, "vertex")
        a = _random(rng, F, (0, 1))
        b = _random(rng, F, (1, 0))
        r1 = bnd.ip_bundle(bnd.twisted_dbar(f, c, surf_hyp), a, c, surf_hyp) - bnd.ip_bundle(
            f, bnd.twisted_dbar_star(a, c, surf_hyp), c, surf_hyp
        )
        r2 = bnd.ip_bundle(bnd.twisted_d_hol(f, c, surf_hyp), b, c, surf_hyp) - bnd.ip_bundle(
            f, bnd.twisted_d_star(b, c, surf_hyp), c, surf_hyp
        )
        worst = max(worst, abs(r1), abs(r2))
    assert worst <= 1e-10


def test_scalar_laplacian_annihilates_constants(surf_uni, triv1_r2):
    f = _scalar(np.ones(surf_uni.n_vertices), "vertex")
    assert np.linalg.norm(bnd.laplacian(f, triv1_r2, surf_uni).values) <= 1e-14


def test_dbar_star_zero(surf_hyp, triv1_r2):
    z = _scalar(np.zeros(surf_hyp.n_faces), (0, 1))
    assert np.linalg.norm(bnd.twisted_dbar_star(z, triv1_r2, surf_hyp).values) == 0.0


def test_hodge_star_conventions(surf_hyp, triv1_r2, rng):
    F = surf_hyp.n_faces
    nu = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    beta = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    np.testing.assert_allclose(conventions.STAR_DZBAR * nu, 1j * nu)
    np.testing.assert_allclose(conventions.STAR_DZ * beta, -1j * beta)
    for star, w in ((conventions.STAR_DZBAR, nu), (conventions.STAR_DZ, beta)):
        np.testing.assert_allclose(star * (star * w), -w)
    # star is an isometry of the L2 pairing on 1-forms
    nu2 = rng.standard_normal(F) + 1j * rng.standard_normal(F)
    star = conventions.STAR_DZBAR
    lhs = bnd.ip_bundle(_scalar(star * nu, (0, 1)), _scalar(star * nu2, (0, 1)), triv1_r2, surf_hyp)
    rhs = bnd.ip_bundle(_scalar(nu, (0, 1)), _scalar(nu2, (0, 1)), triv1_r2, surf_hyp)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_hodge_star_type_error(surf_hyp):
    # cochains carry only vertex, (0,1) and (1,0) degrees
    with pytest.raises(ValueError, match="degree"):
        BundleCochain(np.zeros((surf_hyp.n_faces, 1, 1)), (2, 0))


def test_ip_properties(surf_hyp, triv1_r2, rng):
    V, c = surf_hyp.n_vertices, triv1_r2
    f = _random(rng, V, "vertex")
    g = _random(rng, V, "vertex")
    ff = bnd.ip_bundle(f, f, c, surf_hyp)
    assert ff.real > 0.0
    assert abs(ff.imag) <= 1e-14 * ff.real
    assert abs(bnd.ip_bundle(f, g, c, surf_hyp) - np.conj(bnd.ip_bundle(g, f, c, surf_hyp))) <= 1e-12


def test_ip_matches_dense_gram(surf_hyp, triv1_r2, rng):
    # oracle: assemble the diagonal weight matrix explicitly
    geom = geometry(surf_hyp)
    W = np.diag(conventions.L2_GLOBAL_FACTOR * geom.mass_rho)
    V = surf_hyp.n_vertices
    basis = [rng.standard_normal(V) + 1j * rng.standard_normal(V) for _ in range(4)]
    for x in basis:
        for y in basis:
            direct = bnd.ip_bundle(_scalar(x, "vertex"), _scalar(y, "vertex"), triv1_r2, surf_hyp)
            dense = np.conj(y) @ W @ x
            assert abs(direct - dense) <= 1e-12 * max(abs(direct), 1.0)


def test_ip_form_positive_definite_dense(surf_hyp, triv1_r2):
    # Gram matrix of the standard coefficient basis under the form pairing
    w1 = bnd.operators(surf_hyp, triv1_r2).w1
    np.testing.assert_array_equal(w1, conventions.L2_GLOBAL_FACTOR * surf_hyp.area)
    assert np.min(np.linalg.eigvalsh(np.diag(w1))) > 0.0


def test_mu_contract(surf_hyp, triv1_r2, rng):
    # the Beltrami contraction (f dz) -> mu f dzbar of the operator
    # variation has the adjoint alpha -> conj(mu) alpha under the form
    # pairing, so d* (mu-bar .) is the exact adjoint of mu d
    F, V, c = surf_hyp.n_faces, surf_hyp.n_vertices, triv1_r2
    mu = Beltrami(rng.standard_normal(F) + 1j * rng.standard_normal(F))
    m = mu.values[:, None, None]
    f = _random(rng, V, "vertex")
    alpha = _random(rng, F, (0, 1))
    contracted = BundleCochain(m * bnd.twisted_d_hol(f, c, surf_hyp).values, (0, 1))
    back = bnd.twisted_d_star(BundleCochain(np.conj(m) * alpha.values, (1, 0)), c, surf_hyp)
    lhs = bnd.ip_bundle(contracted, alpha, c, surf_hyp)
    rhs = bnd.ip_bundle(f, back, c, surf_hyp)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_wedge_trace_positivity(surf_hyp, triv1_r2, rng):
    F = surf_hyp.n_faces
    nu = _random(rng, F, (0, 1))
    star_bar = conventions.STAR_DZ * np.conj(nu.values)  # star(conj(nu)^T), scalar case
    val = 1j * _pair(surf_hyp, nu.values, star_bar)
    assert val.real > 0.0 and abs(val.imag) <= 1e-12 * val.real
    # conventions self-consistency: i * wedge pairing is the L2 form pairing
    assert abs(val - bnd.ip_bundle(nu, nu, triv1_r2, surf_hyp)) <= 1e-12 * abs(val)


def test_wedge_trace_matrix_valued(surf_hyp, rng):
    F, n = surf_hyp.n_faces, 2
    nu = rng.standard_normal((F, n, n)) + 1j * rng.standard_normal((F, n, n))
    star_bar = conventions.STAR_DZ * np.conj(np.swapaxes(nu, 1, 2))
    val = 1j * _pair(surf_hyp, nu, star_bar)
    assert val.real > 0.0 and abs(val.imag) <= 1e-10 * val.real
    lam = 0.7 + 0.1j
    base = _pair(surf_hyp, nu, star_bar)
    assert abs(_pair(surf_hyp, lam * nu, star_bar) - lam * base) <= 1e-12 * abs(base)


def test_wedge_trace_type_error(surf_hyp, rng):
    # the pairing needs both fields on the same faces with equal matrix sizes
    F = surf_hyp.n_faces
    a = rng.standard_normal((F, 2, 2)) + 0j
    with pytest.raises(ValueError):
        _pair(surf_hyp, a, a[:-1])
    with pytest.raises(ValueError):
        _pair(surf_hyp, a, np.zeros((F, 2, 3)))


def test_face_derivative_constant(torus8):
    # uniform planar charts (corner spin 1): a constant Beltrami
    # coefficient lifts to a constant, and its derivative vanishes
    assert np.array_equal(geometry(torus8).corner_spin, np.ones((torus8.n_faces, 3)))
    d = beltrami_d_hol(Beltrami(np.full(torus8.n_faces, 1.7 - 0.3j)), torus8)
    assert np.linalg.norm(d) <= 1e-13


def test_face_derivative_linear_exact(torus8):
    # sample a linear function at barycenters; interior faces (no wrap)
    # recover the exact constant derivative
    bary = np.mean(torus8.chart, axis=1)
    a = 0.8 + 0.4j
    d = beltrami_d_hol(Beltrami(a * bary), torus8)
    interior = []
    m = 8
    for f in range(torus8.n_faces):
        z = torus8.chart[f]
        if z.real.min() >= 1 and z.real.max() <= m - 1 and z.imag.min() >= 1 and z.imag.max() <= m - 1:
            interior.append(f)
    assert len(interior) > 10
    np.testing.assert_allclose(d[interior], a, atol=1e-12)


def test_face_derivative_deterministic(surf_hyp, rng):
    vals = rng.standard_normal(surf_hyp.n_faces) + 1j * rng.standard_normal(surf_hyp.n_faces)
    d1 = beltrami_d_hol(Beltrami(vals), surf_hyp)
    d2 = beltrami_d_hol(Beltrami(vals.copy()), surf_hyp)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("surf", ["surf_hyp_r1", "surf_hyp", "surf_uni"])
def test_beltrami_d_hol_matches_two_step_stencil(request, surf, rng):
    # reference: average the face values, rotated into each vertex's
    # reference chart by corner_spin^-2, onto vertices with area weights,
    # rotate back into every face chart and take the P1 d/dz
    S = request.getfixturevalue(surf)
    geom = geometry(S)
    vals = rng.standard_normal(S.n_faces) + 1j * rng.standard_normal(S.n_faces)
    spin = geom.corner_spin**2
    lifted = np.zeros(S.n_vertices, dtype=complex)
    np.add.at(lifted, geom.corner_vertex, (geom.area / 3.0 * vals)[:, None] / spin)
    lifted /= geom.mass_area
    ref = np.sum(geom.grad_hol * lifted[geom.corner_vertex] * spin, axis=1)
    got = beltrami_d_hol(Beltrami(vals), S)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    assert beltrami_complex(S).kernel.shape == (S.n_vertices, 0)


def test_beltrami_sup_norm_flag():
    assert Beltrami(np.array([0.5, 1.5 + 0j])).sup_norm_warning
    assert not Beltrami(np.array([0.5, 0.9 + 0j])).sup_norm_warning


@settings(max_examples=20, deadline=None)
@given(
    re=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    im=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_star_involution_property(re, im):
    vals = np.array(re) + 1j * np.array(im)
    for star in (conventions.STAR_DZBAR, conventions.STAR_DZ):
        np.testing.assert_allclose(star * (star * vals), -vals)
