import numpy as np
import pytest

from modulilab import tangent as tg
from modulilab._complexes import SolverError
from conftest import dense_star, harmonic_basis, one_tangent, random_cochain


def _gaussian(rng, F):
    return rng.standard_normal(F) + 1j * rng.standard_normal(F)


def test_project_kills_exact_beltrami(su2_scene, rng):
    # D(vector field) is exact and must project to zero
    cx = su2_scene.tangent
    V = cx.n_vertices
    v = rng.standard_normal(V) + 1j * rng.standard_normal(V)
    exact = cx.dbar @ v
    out = cx.harmonic_project(exact)
    assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(exact)


def test_project_mu_idempotent(su2_scene, rng):
    mu = _gaussian(rng, su2_scene.surface.n_faces)
    p1 = su2_scene.tangent.harmonic_project(mu)
    p2 = su2_scene.tangent.harmonic_project(p1)
    assert np.linalg.norm(p2 - p1) <= 1e-8 * np.linalg.norm(p1)


def test_projection_orthogonal_to_exact(su2_scene, rng):
    cx = su2_scene.tangent
    V, F = cx.n_vertices, cx.n_faces
    p = cx.harmonic_project(_gaussian(rng, F))
    for _ in range(5):
        v = rng.standard_normal(V) + 1j * rng.standard_normal(V)
        exact = cx.dbar @ v
        ip = cx.inner(p, exact)
        assert abs(ip) <= 1e-8 * np.linalg.norm(p) * np.linalg.norm(exact)


def test_ks_center_fixes_harmonic(su2_scene):
    mu, nu = one_tangent(su2_scene, 3)
    out_mu, out_nu = tg.ks_center(mu, nu, su2_scene)
    assert np.linalg.norm(out_mu - mu) <= 1e-8 * np.linalg.norm(mu)
    assert np.linalg.norm(out_nu - nu) <= 1e-8 * np.linalg.norm(nu)


def test_ks_center_kills_exact(su2_scene, rng):
    S = su2_scene.surface
    V, F = S.n_vertices, S.n_faces
    vfield = rng.standard_normal(V) + 1j * rng.standard_normal(V)
    g = random_cochain(rng, V, 2)
    mu_exact = su2_scene.tangent.dbar @ vfield
    nu_exact = (su2_scene.endo.dbar @ g.reshape(-1)).reshape(F, 2, 2)
    out_mu, out_nu = tg.ks_center(mu_exact, nu_exact, su2_scene)
    assert np.linalg.norm(out_mu) <= 1e-8 * np.linalg.norm(mu_exact)
    assert np.linalg.norm(out_nu) <= 1e-8 * np.linalg.norm(nu_exact)


def test_ks_center_complex_linear(su2_scene, rng):
    F = su2_scene.surface.n_faces
    mu = _gaussian(rng, F)
    nu = random_cochain(rng, F, 2)
    lam = 0.7 - 2.1j
    base_mu, base_nu = tg.ks_center(mu, nu, su2_scene)
    scaled_mu, scaled_nu = tg.ks_center(lam * mu, lam * nu, su2_scene)
    assert np.linalg.norm(scaled_mu - lam * base_mu) <= 1e-10 * np.linalg.norm(base_mu)
    assert np.linalg.norm(scaled_nu - lam * base_nu) <= 1e-10 * np.linalg.norm(base_nu)


def test_random_tangent_reproducible(su2_scene):
    mu1, nu1 = one_tangent(su2_scene, 42)
    mu2, nu2 = one_tangent(su2_scene, 42)
    assert np.array_equal(mu1, mu2)
    assert np.array_equal(nu1, nu2)
    mu3, nu3 = one_tangent(su2_scene, 42, mu_scale=0.0, nu_scale=0.0)
    assert np.linalg.norm(mu3) == 0.0 and np.linalg.norm(nu3) == 0.0


def test_random_tangent_block_columns_are_one_seed_draws(su2_scene):
    # column j of a block is the one-seed draw of seeds[j], whatever the
    # other seeds of the block are
    F = su2_scene.surface.n_faces
    for seeds in ([31, 7, 1000], [1000, 5, 31, 7]):
        mu, nu = tg.random_tangent(su2_scene, seeds, mu_scale=0.5, nu_scale=2.0)
        assert mu.shape == (F, len(seeds)) and nu.shape == (F, 2, 2, len(seeds))
        for j, seed in enumerate(seeds):
            one_mu, one_nu = one_tangent(su2_scene, seed, mu_scale=0.5, nu_scale=2.0)
            assert np.linalg.norm(mu[:, j] - one_mu) <= 1e-13 * np.linalg.norm(one_mu)
            assert np.linalg.norm(nu[..., j] - one_nu) <= 1e-13 * np.linalg.norm(one_nu)


def test_failed_projection_names_the_tangent_seed(su2_scene, monkeypatch):
    # only the column of seed 31 draws non-finite data: its projection
    # fails, and the error names that seed and carries its column
    class NanDraws:
        def standard_normal(self, size):
            return np.full(size, np.nan)

    draw = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: NanDraws() if seed == 31 else draw(seed))
    with pytest.raises(SolverError) as err:
        tg.random_tangent(su2_scene, [30, 31, 32])
    assert str(err.value) == "mu projection of tangent seed 31: solve relative residual nan exceeds 1e-08"
    assert err.value.column == 1


def _check_harmonic_basis(cx, smooth_dim):
    basis = harmonic_basis(cx)
    # dimension agrees with a dense rank computation of dbar*
    Ds = dense_star(cx, cx.dbar)
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


def test_lus_are_factored_before_the_tangent_block(surf_hyp_r1, su2_r1, monkeypatch):
    # both LUs exist when ks_center is entered, so no tangent block is
    # alive while SuperLU factors
    from modulilab.bundle import Scene

    scene = Scene(surf_hyp_r1, su2_r1)
    seen, ks_center = [], tg.ks_center

    def checked(mu, nu, scene, names=None):
        seen.append(("lu" in scene.endo.__dict__, "lu" in scene.tangent.__dict__))
        return ks_center(mu, nu, scene, names)

    monkeypatch.setattr(tg, "ks_center", checked)
    tg.random_tangent(scene, [0, 1])
    assert seen == [(True, True)]
