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
    assert tg.is_harmonic(v1, su2_scene)


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


def test_tangent_serialization_roundtrip(tmp_path, su2_scene):
    v = tg.random_tangent(su2_scene, seed=5)
    p = tmp_path / "v.tan"
    tg.save_tangent(v, p)
    back = tg.load_tangent(p, su2_scene)
    np.testing.assert_allclose(back.mu.values, v.mu.values, atol=0, rtol=0)
    np.testing.assert_allclose(back.nu.values, v.nu.values, atol=0, rtol=0)
    assert back.harmonic


def test_load_tangent_computes_harmonic_flag(tmp_path, su2_scene, rng):
    F = su2_scene.surface.n_faces
    raw = tg.TangentVector(
        Beltrami(rng.standard_normal(F) + 0j), BundleCochain(rng.standard_normal((F, 2, 2)) + 0j, (0, 1))
    )
    p = tmp_path / "raw.tan"
    tg.save_tangent(raw, p)
    assert not tg.load_tangent(p, su2_scene).harmonic


def _edited(tmp_path, scene, edit):
    """A saved tangent file of ``scene`` with ``edit`` applied to its lines."""
    p = tmp_path / "v.tan"
    tg.save_tangent(tg.random_tangent(scene, seed=5), p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(edit(lines)) + "\n")
    return p


def _set_field(lines, index, field, value):
    parts = lines[index].split()
    parts[field] = value
    lines[index] = " ".join(parts)
    return lines


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: ls[:3] + ["sigma 0 1.0 2.0"] + ls[3:], "line 4: unknown record 'sigma'"),
        (lambda ls: _set_field(ls, 2, 2, "1.5x"), "line 3: non-numeric entry"),
        (lambda ls: _set_field(ls, 2, 1, "two"), "line 3: non-numeric entry"),
        (lambda ls: _set_field(ls, 2, 3, "nan"), "line 3: non-finite entry"),
        (lambda ls: _set_field(ls, -1, 4, "inf"), "non-finite entry"),
        (lambda ls: _set_field(ls, 2, 1, "-1"), "line 3: face id -1 out of range"),
        (lambda ls: _set_field(ls, 2, 1, "100000"), "line 3: face id 100000 out of range"),
        (lambda ls: _set_field(ls, 2, 1, "1"), "line 3: duplicate mu record for face 1"),
        (lambda ls: [x for x in ls if x.split()[:2] != ["nu", "7"]], "missing nu record for face 7"),
        (lambda ls: [x for x in ls if x.split()[:2] != ["mu", "0"]], "missing mu record for face 0"),
        (lambda ls: [ls[0] + " 0.5"] + ls[1:], "line 1: mu record needs a face id and 2 reals"),
        (lambda ls: ls[:-1] + [" ".join(ls[-1].split()[:-1])], "nu record needs a face id and 8 reals"),
    ],
    ids=[
        "unknown", "non_numeric", "non_integer_id", "nan", "inf", "negative_id", "id_out_of_range",
        "duplicate", "missing_nu", "missing_mu", "mu_count", "nu_count",
    ],
)
def test_load_tangent_rejects(tmp_path, su2_scene, edit, message):
    p = _edited(tmp_path, su2_scene, edit)
    with pytest.raises(tg.TangentFileError, match=message):
        tg.load_tangent(p, su2_scene)
