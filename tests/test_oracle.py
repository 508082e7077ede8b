import ast
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import modulilab
from modulilab import bundle as bnd
from modulilab import oracle
from modulilab import variation as var
from modulilab._complexes import DolbeaultComplex
from modulilab.bundle import Scene
from modulilab.cli import TOLERANCES
from modulilab.surface import equip_conformal, refine
from conftest import dense_delta0_inverse, dense_projection, frame_pinv, harmonic_basis, p1_dbar, random_cochain
from flat_torus import build_torus, torus_spectral_crosscheck


def scalar_complex(S):
    """The scalar complex: End(E) of the trivial line bundle."""
    return Scene(S, bnd.trivial_cocycle(S.mesh, 1)).endo


def tangent_complex(S):
    return Scene(S, bnd.trivial_cocycle(S.mesh, 1)).tangent


def test_materialize_matches_functional_path(su2_scene_r1, rng):
    cx = su2_scene_r1.endo
    D = oracle._columns(lambda x: cx.star(cx.dbar, x), cx.w1.size, cx.w0.size)
    worst = 0.0
    for _ in range(50):
        f = random_cochain(rng, cx.n_faces, 2).reshape(-1)
        via_matrix = D @ f
        direct = cx.star(cx.dbar, f)
        worst = max(worst, np.linalg.norm(via_matrix - direct) / np.linalg.norm(direct))
    assert worst <= 1e-12


def test_materialize_all_operators(su2_scene_r1, rng):
    # oracle equivalence: the dense matrix of each operator that
    # check-operators materializes applies like the operator on random inputs
    cx = su2_scene_r1.endo
    V, F, n = cx.n_vertices, cx.n_faces, 2
    n0, n1 = cx.w0.size, cx.w1.size
    cases = [
        (F, n1, n0, lambda x: cx.star(cx.dbar, x)),
        (V, n0, n0, lambda x: cx.delta0_solve(x)[0]),
    ]
    for sites, n_in, n_out, apply in cases:
        M = oracle._columns(apply, n_in, n_out)
        for _ in range(5):
            x = random_cochain(rng, sites, n).reshape(-1)
            direct = apply(x).reshape(-1)
            assert np.linalg.norm(M @ x - direct) <= 1e-12 * max(np.linalg.norm(direct), 1e-300)


def test_materialized_laplacian_hermitian(su2_scene_r1):
    cx = su2_scene_r1.endo
    M = np.diag(cx.w0) @ cx.laplacian.toarray()
    assert np.linalg.norm(M - M.conj().T, 2) <= 1e-12 * np.linalg.norm(M, 2)


def test_rank1_trivial_equals_scalar_entrywise(surf_hyp_r1, fan2_r1):
    c = bnd.trivial_cocycle(fan2_r1, 1)
    D = Scene(surf_hyp_r1, c).endo.dbar.toarray()
    assert np.max(np.abs(D - p1_dbar(surf_hyp_r1))) == 0.0


def test_restricted_inverse_dense(su2_scene_r1, rng):
    cx = su2_scene_r1.endo
    lap = cx.laplacian.toarray()
    inv = dense_delta0_inverse(cx)
    K = cx.kernel.toarray()
    proj = np.eye(lap.shape[0]) - K @ (K.conj().T * cx.w0[None, :])
    assert np.linalg.norm(lap @ inv - proj, 2) <= 1e-10
    assert oracle.DenseFrame(cx).kernel.shape[1] == bnd._commutant(su2_scene_r1.cocycle).shape[1]
    # cross-path agreement with the factorized solver
    worst = 0.0
    for _ in range(20):
        h = random_cochain(rng, cx.n_vertices, 2).reshape(-1)
        x_dense = inv @ h
        x_lu, _ = cx.delta0_solve(h)
        worst = max(worst, np.linalg.norm(x_dense - x_lu) / np.linalg.norm(x_dense))
    assert worst <= 1e-8


@pytest.mark.parametrize("refinements", [1, 2, 3])
@pytest.mark.parametrize("builder", [scalar_complex, tangent_complex])
def test_closed_form_kernels_match_dense(fan2, refinements, builder):
    # the constants are exact kernels of both complexes,
    # and the dense spectrum has no further kernel direction
    mesh = fan2
    for _ in range(refinements):
        mesh = refine(mesh)
    S = equip_conformal(mesh, layout="stored", density="hyperbolic")
    cx = builder(S)
    K = cx.kernel.toarray()
    lap = cx.laplacian
    assert np.linalg.norm(lap @ K) <= 1e-12 * abs(lap).max() * np.linalg.norm(K)
    frame = oracle.DenseFrame(cx)
    assert frame.kernel.shape[1] == K.shape[1] == 1
    overlap = abs(np.vdot(frame.kernel[:, 0], np.sqrt(cx.w0) * K[:, 0]))
    assert abs(overlap - 1.0) <= 1e-10


def test_frame_eigenvectors_are_orthonormal_at_r3(su2_r2):
    # the frame's divide-and-conquer eigendecomposition at genus-2 su2 r3
    # (n0 = 1,016): orthonormal and a residual at roundoff (about 8e-15
    # and 5e-15; MRRR's eigenvectors are off by about 1.3e-12)
    c = bnd.refine_cocycle(su2_r2)
    S = equip_conformal(c.mesh, layout="stored", density="hyperbolic")
    cx = Scene(S, c).endo
    frame = oracle.DenseFrame(cx)
    D, lam, V = frame.D, frame.lam, frame.V
    n0 = V.shape[0]
    assert n0 == 1016 and V.flags.f_contiguous
    assert np.linalg.norm(V.conj().T @ V - np.eye(n0), 2) <= 1e-13
    assert np.linalg.norm((D.conj().T @ D) @ V - V * lam, 2) <= 1e-13 * lam[-1]
    assert frame.kernel.shape[1] == cx.kernel.shape[1]


def test_dense_cap(su2_scene_r1):
    # the frame's check is the one gate of the dense certification; on
    # this scene dim C^0 + dim C^{0,1} = 56 + 128 = 184
    cx = su2_scene_r1.endo
    assert cx.dbar.shape == (128, 56)
    oracle.certify_operators(su2_scene_r1, dense_cap=184)
    with pytest.raises(oracle.DenseCapError):
        oracle.certify_operators(su2_scene_r1, dense_cap=183)


def test_certify_operators_values(su2_scene_r1):
    dense = oracle.certify_operators(su2_scene_r1)
    for name in (
        "adjointness_residual",
        "projector_idempotent",
        "projector_self_adjoint",
        "projector_annihilates_dbar",
        "delta0_factorized_vs_dense",
    ):
        assert 0.0 <= dense[name] <= 1e-12, name
    assert dense["kernel_dim"] == 1
    assert dense["harmonic_nu_dim"] == harmonic_basis(su2_scene_r1.endo).shape[1]


@pytest.mark.parametrize("face_weights", ["area", "varied"])
@pytest.mark.parametrize("broken", [False, True], ids=["exact", "broken"])
@pytest.mark.parametrize("preset", ["su2", "trivial3"])
def test_streamed_projector_checks_match_dense_products(
    monkeypatch, surf_hyp_r1, su2_r1, fan2_r1, preset, broken, face_weights
):
    # certify_operators applies P through the production solves block by
    # block and never forms P, P^2 - P, P - P^H or P D; the dense products of
    # the materialized P give the same three values, roundoff-sized for the
    # factorized P and of order 0.1 for one that is none of idempotent,
    # self-adjoint (off and on the diagonal) and zero on D: P + 0.1 S + 0.05i,
    # S a cyclic shift
    if broken:
        project = DolbeaultComplex.harmonic_project

        def perturbed(self, a):
            return project(self, a) + 0.1 * np.roll(a, 1, axis=0) + 0.05j * a

        monkeypatch.setattr(DolbeaultComplex, "harmonic_project", perturbed)
    scene = Scene(surf_hyp_r1, su2_r1 if preset == "su2" else bnd.trivial_cocycle(fan2_r1, 3))
    if face_weights == "varied":
        # every face of this layout has one area, so the frame's W1^{1/2} is a
        # scalar, which a linear P commutes with; varied face weights make the
        # complex tell a missing or misplaced W1^{1/2} apart
        cx = scene.endo
        scene.__dict__["endo"] = dataclasses.replace(cx, w1=cx.w1 * np.linspace(0.5, 2.0, cx.w1.size))
    dense = oracle.certify_operators(scene)
    P = oracle._framed(dense_projection(scene.endo), scene.endo.w1, scene.endo.w1)
    D = oracle.DenseFrame(scene.endo).D
    products = {
        "projector_idempotent": np.linalg.norm(P @ P - P, 2),
        "projector_self_adjoint": np.linalg.norm(P - P.conj().T, 2),
        "projector_annihilates_dbar": np.linalg.norm(P @ D, 2) / np.linalg.norm(D, 2),
    }
    for name, value in products.items():
        assert (value > 0.01) == broken, name
        assert abs(dense[name] - value) <= 1e-13 * max(value, 1.0), name


# Each rewritten check must see a break of the operator it certifies: a
# fresh scene (its own complexes), one operator broken, and the matching
# value over its gate.
TOLS = TOLERANCES


def test_certify_detects_scaled_delta0_solve(monkeypatch, surf_hyp_r1, su2_r1):
    solve = DolbeaultComplex.delta0_solve

    def scaled(self, h):
        x, stats = solve(self, h)
        return x * (1.0 + 1e-6), stats

    monkeypatch.setattr(DolbeaultComplex, "delta0_solve", scaled)
    dense = oracle.certify_operators(Scene(surf_hyp_r1, su2_r1))
    assert dense["delta0_factorized_vs_dense"] > TOLS["delta0_factorized_vs_dense"]


def test_certify_detects_perturbed_dbar_star(monkeypatch, surf_hyp_r1, su2_r1):
    # every applied adjoint has its first entry scaled, which scales the
    # first row of the materialized dbar*; the Laplacian and the solves
    # do not go through ``star``, so Delta0^{-1} stays exact
    star = DolbeaultComplex.star

    def perturbed(self, M, y):
        out = star(self, M, y)
        out[0] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(DolbeaultComplex, "star", perturbed)
    assert oracle.certify_operators(Scene(surf_hyp_r1, su2_r1))["adjointness_residual"] > TOLS["adjointness_residual"]


def test_certify_detects_identity_projection(monkeypatch, surf_hyp_r1, su2_r1):
    monkeypatch.setattr(DolbeaultComplex, "harmonic_project", lambda self, alpha: alpha.copy())
    dense = oracle.certify_operators(Scene(surf_hyp_r1, su2_r1))
    assert dense["projector_annihilates_dbar"] > TOLS["projector_annihilates_dbar"]


def test_dense_algebra_only_in_oracle():
    # dense linear algebra is the independent ground truth and lives in
    # oracle.py alone; bundle._commutant works on the n^2 x n^2 fiber
    # Gram matrix, not on a mesh-sized one, and bundle cannot import oracle
    src = Path(modulilab.__file__).parent
    words = re.compile(r"toarray\(|\b(eigh|svd|pinv)\b|scipy\.linalg")
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "oracle.py":
            continue
        text = path.read_text()
        if path.name == "bundle.py":
            tree = ast.parse(text)
            (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_commutant"]
            lines = text.splitlines()
            text = "\n".join(lines[: fn.lineno - 1] + lines[fn.end_lineno :])
        hits += [f"{path.name}: {line.strip()}" for line in text.splitlines() if words.search(line)]
    assert hits == []


@pytest.mark.parametrize(
    "shape, scale, hermitian",
    [
        ((40, 17), 1.0, False),
        ((17, 40), 1.0, False),
        ((30, 30), 1.0, True),
        ((25, 12), 1e-15, False),
        ((30, 30), 1.0, False),  # square, not Hermitian
    ],
)
def test_spectral_norm_matches_svd(rng, shape, scale, hermitian):
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if hermitian:
        X = X + X.conj().T
    X *= scale
    ref = np.linalg.norm(X, 2)
    for order in ("C", "F"):
        # the Gram way reads X (in place when Fortran-ordered) and writes nothing
        Y = X.copy(order=order)
        assert abs(oracle.spectral_norm(Y) - ref) <= 1e-13 * ref
        assert Y.tobytes() == X.tobytes()
    if hermitian:
        # from the lower triangle alone
        assert abs(oracle.spectral_norm(np.tril(X), hermitian=True) - ref) <= 1e-13 * ref


def test_spectral_norm_of_zero_matrix():
    assert oracle.spectral_norm(np.zeros((6, 4), dtype=complex)) == 0.0


def test_hermitian_kernels_keep_the_strict_upper_triangle(rng):
    # zherk and the Hermitian eigensolver work on a Fortran-ordered buffer
    # in place and write only its lower triangle and diagonal, as the
    # docstring of spectral_norm(buf, hermitian=True), which is
    # eigh(buf, lower=True, eigvals_only=True, overwrite_a=True), states
    n = 40
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    buf = np.asfortranarray(X + X.conj().T)
    upper = np.triu_indices(n, 1)
    before = buf.copy(order="F")
    q = np.asfortranarray(rng.standard_normal((n, 7)) + 1j * rng.standard_normal((n, 7)))
    out = scipy.linalg.blas.zherk(0.5, q, beta=-1.0, c=buf, lower=1, overwrite_c=1)
    assert np.shares_memory(out, buf)
    assert buf[upper].tobytes() == before[upper].tobytes()
    assert np.allclose(np.tril(buf), np.tril(0.5 * q @ q.conj().T - before), rtol=0.0, atol=1e-12)
    for norm in (
        lambda a: oracle.spectral_norm(a, hermitian=True),
        lambda a: scipy.linalg.eigh(a, lower=True, eigvals_only=True, overwrite_a=True),
    ):
        work = before.copy(order="F")
        norm(work)
        assert not np.array_equal(np.tril(work), np.tril(before))  # overwritten: no copy was taken
        assert work[upper].tobytes() == before[upper].tobytes()


def test_upper_triangle_kernels_keep_the_strict_lower_triangle(rng):
    # certify_operators keeps i (P - P^H) in the strict lower triangle of its
    # one buffer while zherk accumulates a Gram matrix in the upper triangle
    # and the top eigenvalue is taken over it, in place
    n = 40
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    buf = np.asfortranarray(X)
    lower = np.tril_indices(n, -1)
    before = buf.copy(order="F")
    q = np.asfortranarray(rng.standard_normal((n, 7)) + 1j * rng.standard_normal((n, 7)))
    out = scipy.linalg.blas.zherk(1.0, q, beta=0.0, c=buf, lower=0, overwrite_c=1)
    assert np.shares_memory(out, buf)
    assert buf[lower].tobytes() == before[lower].tobytes()
    assert np.allclose(np.triu(buf), np.triu(q @ q.conj().T), rtol=0.0, atol=1e-12)
    gram = buf.copy(order="F")
    ref = np.linalg.norm(q, 2)
    assert abs(oracle._gram_norm(buf, lower=False) - ref) <= 1e-13 * ref
    assert not np.array_equal(np.triu(buf), np.triu(gram))  # overwritten: no copy was taken
    assert buf[lower].tobytes() == before[lower].tobytes()


@pytest.mark.parametrize(
    "entry, bound",
    [(lambda scene: oracle.certify_operators(scene), 1.6)],
    ids=["certify_operators"],
)
def test_dense_entry_point_peak_memory(su2_scene, entry, bound):
    # the tracemalloc peak of one call, in units of one dense n1 x n1
    # complex matrix (n1 = dim C^{0,1} = 512 at su2 r2, so 4 MiB): one
    # full-size buffer, made once and used in place by BLAS and LAPACK,
    # plus the frame's n1 x n0 D and n0 x n0 V (n0 = dim C^0 = 248) and
    # the n0 x n0 Gram matrices, none of them held with the full-size one
    n1 = su2_scene.endo.w1.shape[0]
    assert n1 == 512
    entry(su2_scene)  # the scene's factorizations are built and kept outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        entry(su2_scene)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * n1 * n1 * 16, peak / (n1 * n1 * 16)


def svd_projector_errors(scene, steps, seed):
    """The errors of ``variation.projector_derivative_sweep`` computed the
    dense way, in the weight-orthonormal frame and from the sweep's own
    tangent, A and probe: P(t) = I - U_r U_r^H from the thin SVD of
    (D + tA) restricted to the complement of the frame's kernel, the
    Leibniz matrix from the frame's pseudo-inverse, and Frobenius norms on
    the framed probe."""
    cx = scene.endo
    _, A, Z = var._sweep_inputs(scene, seed)
    frame = oracle.DenseFrame(cx)
    D, rank, K = frame.D, frame.rank, frame.kernel
    A = oracle._framed(A.toarray(order="F"), cx.w0, cx.w1)
    Zf = np.sqrt(cx.w1)[:, None] * Z.reshape(len(cx.w1), -1)
    deflate = np.eye(D.shape[1]) - K @ K.conj().T

    def projector(t):
        U = np.linalg.svd((D + t * A) @ deflate, full_matrices=False)[0][:, :rank]
        return np.eye(D.shape[0]) - U @ U.conj().T

    pinv0, P0 = frame_pinv(frame), projector(0.0)
    leibniz = (-P0 @ A @ pinv0 @ D.conj().T - D @ pinv0 @ A.conj().T @ P0) @ Zf
    denom = np.linalg.norm(leibniz)
    return {h: np.linalg.norm((projector(h) - projector(-h)) @ Zf / (2 * h) - leibniz) / denom for h in steps}


@pytest.mark.parametrize("preset", ["su2", "trivial3"])
def test_projector_sweep_matches_svd_reference(surf_hyp_r1, su2_r1, fan2_r1, preset):
    # the sparse sweep (bordered LU solves along the deformation) and the
    # dense SVD projectors of the same D(t) give the same error at the
    # gated step, and both gates pass; rank-3 trivial is reducible, so its
    # kernel does not persist along D(t)
    cocycle = su2_r1 if preset == "su2" else bnd.trivial_cocycle(fan2_r1, 3)
    scene = Scene(surf_hyp_r1, cocycle)
    for seed in range(8):
        sweep = var.projector_derivative_sweep(scene, seed=seed)
        ref = svd_projector_errors(scene, (1e-4,), seed)
        assert abs(sweep["errors"][1e-4] - ref[1e-4]) <= 1e-3 * ref[1e-4], seed
        assert sweep["errors"][1e-4] <= TOLS["fd_error_geometric_at_1e-4"], seed
        assert abs(sweep["slope"] - 2.0) <= TOLS["loglog_slope_geometric_near_2"], seed


def test_torus_mesh_valid():
    m = build_torus(4)
    assert m.genus == 1
    assert m.n_vertices - m.n_edges + m.n_faces == 0


def test_torus_crosscheck():
    rep = torus_spectral_crosscheck(rank=1, sizes=(4, 8, 16))
    for lvl in rep["levels"]:
        assert lvl["idempotency"] <= 1e-10
        assert lvl["constant_form_residual"] <= 1e-12
    assert rep["monotone_decrease"]


def test_torus_crosscheck_rank2():
    rep = torus_spectral_crosscheck(rank=2, sizes=(4, 8))
    assert rep["levels"][0]["constant_form_residual"] <= 1e-12
    assert rep["levels"][1]["smooth_projection_error"] < rep["levels"][0]["smooth_projection_error"]
