import numpy as np
import pytest

from modulilab import oracle
from modulilab import tangent as tg
from modulilab.bundle import BundleCochain
from modulilab.calculus import Beltrami, ip_beltrami
from conftest import random_cochain


def test_project_kills_exact_beltrami(su2_scene, rng):
    # D(vector field) is exact and must project to zero
    cx = su2_scene.tangent
    V = cx.n_vertices
    v = rng.standard_normal(V) + 1j * rng.standard_normal(V)
    exact = Beltrami(cx.dbar @ v)
    out = tg.project_harmonic_mu(exact, cx)
    assert np.linalg.norm(out.values) <= 1e-8 * np.linalg.norm(exact.values)


def test_project_mu_idempotent(su2_scene, rng):
    F = su2_scene.surface.n_faces
    mu = Beltrami(rng.standard_normal(F) + 1j * rng.standard_normal(F))
    p1 = tg.project_harmonic_mu(mu, su2_scene.tangent)
    p2 = tg.project_harmonic_mu(p1, su2_scene.tangent)
    assert np.linalg.norm(p2.values - p1.values) <= 1e-8 * np.linalg.norm(p1.values)


def test_projection_orthogonal_to_exact(su2_scene, rng):
    S, cx = su2_scene.surface, su2_scene.tangent
    V, F = S.n_vertices, S.n_faces
    mu = Beltrami(rng.standard_normal(F) + 1j * rng.standard_normal(F))
    p = tg.project_harmonic_mu(mu, cx)
    for _ in range(5):
        v = rng.standard_normal(V) + 1j * rng.standard_normal(V)
        exact = Beltrami(cx.dbar @ v)
        ip = ip_beltrami(p, exact, S)
        assert abs(ip) <= 1e-8 * np.linalg.norm(p.values) * np.linalg.norm(exact.values)


def test_ks_center_fixes_harmonic(su2_scene):
    v = tg.random_tangent(su2_scene, seed=3)
    out = tg.ks_center(v.mu, v.nu, su2_scene)
    assert np.linalg.norm(out.mu.values - v.mu.values) <= 1e-8 * np.linalg.norm(v.mu.values)
    assert np.linalg.norm(out.nu.values - v.nu.values) <= 1e-8 * np.linalg.norm(v.nu.values)


def test_ks_center_kills_exact(su2_scene, rng):
    S = su2_scene.surface
    V, F = S.n_vertices, S.n_faces
    vfield = rng.standard_normal(V) + 1j * rng.standard_normal(V)
    g = random_cochain(rng, V, 2, "vertex")
    mu_exact = Beltrami(su2_scene.tangent.dbar @ vfield)
    nu_exact = BundleCochain((su2_scene.endo.dbar @ g.values.reshape(-1)).reshape(F, 2, 2), (0, 1))
    out = tg.ks_center(mu_exact, nu_exact, su2_scene)
    assert np.linalg.norm(out.mu.values) <= 1e-8 * np.linalg.norm(mu_exact.values)
    assert np.linalg.norm(out.nu.values) <= 1e-8 * np.linalg.norm(nu_exact.values)


def test_ks_center_complex_linear(su2_scene, rng):
    F = su2_scene.surface.n_faces
    mu = Beltrami(rng.standard_normal(F) + 1j * rng.standard_normal(F))
    nu = random_cochain(rng, F, 2, (0, 1))
    lam = 0.7 - 2.1j
    base = tg.ks_center(mu, nu, su2_scene)
    scaled = tg.ks_center(Beltrami(lam * mu.values), BundleCochain(lam * nu.values, (0, 1)), su2_scene)
    assert np.linalg.norm(scaled.mu.values - lam * base.mu.values) <= 1e-10 * np.linalg.norm(
        base.mu.values
    )
    assert np.linalg.norm(scaled.nu.values - lam * base.nu.values) <= 1e-10 * np.linalg.norm(
        base.nu.values
    )


def test_random_tangent_reproducible(su2_scene):
    v1 = tg.random_tangent(su2_scene, seed=42)
    v2 = tg.random_tangent(su2_scene, seed=42)
    assert np.array_equal(v1.mu.values, v2.mu.values)
    assert np.array_equal(v1.nu.values, v2.nu.values)
    assert v1.harmonic
    v3 = tg.random_tangent(su2_scene, seed=42, mu_scale=0.0, nu_scale=0.0)
    assert np.linalg.norm(v3.mu.values) == 0.0 and np.linalg.norm(v3.nu.values) == 0.0


def _check_harmonic_basis(cx, smooth_dim):
    basis = oracle.harmonic_basis(cx)
    # dimension agrees with a dense rank computation of dbar_star
    Ds = cx.dbar_star.toarray()
    expected = Ds.shape[1] - np.linalg.matrix_rank(Ds, tol=1e-10)
    assert basis.shape[1] == expected
    # larger-than-smooth discrete harmonic spaces are expected
    assert basis.shape[1] >= smooth_dim
    for k in range(basis.shape[1]):
        b = basis[:, k]
        assert np.linalg.norm(cx.harmonic_project(b) - b) <= 1e-8
    gram = (basis.conj().T * cx.w1[None, :]) @ basis
    assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-10


def test_harmonic_nu_basis(su2_scene_r1):
    # End(E)-valued (0,1)-forms; the smooth dimension is n^2 (g - 1) + 1
    _check_harmonic_basis(su2_scene_r1.endo, 2 * 2 * (2 - 1) + 1)


def test_harmonic_mu_basis(su2_scene_r1):
    # Beltrami coefficients; the smooth dimension is 3g - 3
    _check_harmonic_basis(su2_scene_r1.tangent, 3 * 2 - 3)

