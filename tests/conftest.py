import numpy as np
import pytest

from modulilab import bundle as bnd
from modulilab.surface import build_polygon_gluing, equip_conformal
from modulilab.tangent import random_tangent


@pytest.fixture(scope="session")
def fan2():
    return build_polygon_gluing(2)


@pytest.fixture(scope="session")
def fan2_r1(su2_r1):
    return su2_r1.mesh


@pytest.fixture(scope="session")
def fan2_r2(su2_r2):
    return su2_r2.mesh


@pytest.fixture(scope="session")
def surf_hyp(fan2_r2):
    return equip_conformal(fan2_r2, layout="stored", density="hyperbolic")


@pytest.fixture(scope="session")
def surf_uni(fan2_r2):
    return equip_conformal(fan2_r2, layout="equilateral", density="uniform")


@pytest.fixture(scope="session")
def surf_hyp_r1(fan2_r1):
    return equip_conformal(fan2_r1, layout="stored", density="hyperbolic")


@pytest.fixture(scope="session")
def su2_r2(su2_r1):
    return bnd.refine_cocycle(su2_r1)


@pytest.fixture(scope="session")
def su2_r1(fan2):
    return bnd.refine_cocycle(bnd.su2_preset(fan2))


@pytest.fixture(scope="session")
def triv1_r2(fan2_r2):
    return bnd.trivial_cocycle(fan2_r2, 1)


@pytest.fixture(scope="session")
def triv2_r2(fan2_r2):
    return bnd.trivial_cocycle(fan2_r2, 2)


@pytest.fixture(scope="session")
def su2_scene(surf_hyp, su2_r2):
    return bnd.Scene(surf_hyp, su2_r2)


@pytest.fixture(scope="session")
def su2_scene_r1(surf_hyp_r1, su2_r1):
    return bnd.Scene(surf_hyp_r1, su2_r1)


@pytest.fixture(scope="session")
def triv1_scene(surf_hyp, triv1_r2):
    return bnd.Scene(surf_hyp, triv1_r2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240814)


def p1_dbar(S):
    """Dense scalar P1 hat-gradient dbar stencil, straight from the geometry:
    row f holds grad_bar[f, k] in the column of corner vertex k."""
    D = np.zeros((S.n_faces, S.n_vertices), dtype=complex)
    for k in range(3):
        D[np.arange(S.n_faces), S.corner_vertex[:, k]] = S.grad_bar[:, k]
    return D


def frame_pinv(frame):
    """The framed Delta0^+ of a dense frame: V lam^-1 V^H on the
    eigenvalues its kernel rule keeps."""
    from modulilab.oracle import _nonzero

    inv = np.where(_nonzero(frame.lam), 1.0 / np.maximum(frame.lam, 1e-300), 0.0)
    return (frame.V * inv[None, :]) @ frame.V.conj().T


def dense_delta0_inverse(cx):
    """Delta0^+ of a complex in cochain coordinates, from the dense frame."""
    from modulilab.oracle import DenseFrame

    s0 = np.sqrt(cx.w0)
    return (frame_pinv(DenseFrame(cx)) * s0[None, :]) / s0[:, None]


def dense_projection(cx):
    """The harmonic projector of a complex as a dense matrix in cochain
    coordinates: the production ``harmonic_project`` of every unit column."""
    return cx.harmonic_project(np.eye(cx.w1.shape[0], dtype=complex))


def harmonic_basis(cx):
    """Columns spanning ker(dbar*) of a complex, orthonormal under w1: the
    left singular vectors of the dense frame's D past its rank."""
    from modulilab.oracle import DenseFrame

    frame = DenseFrame(cx)
    u = np.linalg.svd(frame.D, full_matrices=True)[0]
    return u[:, frame.rank :] / np.sqrt(cx.w1)[:, None]


def dense_star(cx, M):
    """W0^-1 M^H W1 of a face operator M of a complex, column by column
    through ``cx.star``."""
    return np.column_stack([cx.star(M, e) for e in np.eye(M.shape[0], dtype=complex)])


def two_sheet_mesh():
    """Fields of two copies of the refined genus-2 fan that share only
    vertices 0 and 1, declared genus 4: Euler's formula holds and the
    vertices are connected, but no face of one copy meets the other."""
    from modulilab.surface import build_polygon_gluing, refine

    m = refine(build_polygon_gluing(2))
    V, H = m.n_vertices, m.n_half_edges
    copy = np.where(m.origin < 2, m.origin, m.origin + V - 2)
    return dict(
        origin=np.concatenate([m.origin, copy]),
        twin=np.concatenate([m.twin, m.twin + H]),
        genus=4,
        n_vertices=2 * V - 2,
        layout=np.concatenate([m.layout, m.layout]),
    )


def pinched_mesh():
    """Fields of the twice-refined genus-2 fan with vertex 5 merged into 2
    and vertex 8 into 3, declared genus 3: Euler's formula holds, but two
    sheets meet at vertex 2 and at vertex 3."""
    from modulilab.surface import build_polygon_gluing, refine

    m = refine(refine(build_polygon_gluing(2)))
    merged = np.arange(m.n_vertices)
    merged[5], merged[8] = 2, 3
    renumber = np.cumsum(np.isin(np.arange(m.n_vertices), (5, 8), invert=True)) - 1
    return dict(origin=renumber[merged[m.origin]], twin=m.twin, genus=3, n_vertices=m.n_vertices - 2, layout=m.layout)


def save_mesh_fields(fields, path):
    """``save_mesh`` of mesh fields that ``HalfEdgeMesh`` would refuse."""
    from types import SimpleNamespace

    from modulilab.surface import save_mesh

    H = fields["twin"].size
    save_mesh(SimpleNamespace(**fields, n_half_edges=H, n_edges=H // 2, n_faces=H // 3), path)


def ip(w, x, y):
    """Weighted L2 pairing sum w x conj(y) of two cochains, flattened."""
    return complex(np.sum(w * np.ravel(x) * np.conj(np.ravel(y))))


def random_cochain(rng, sites, n):
    """Gaussian End(E)-valued cochain: (sites, n, n) complex, on vertices or faces."""
    return rng.standard_normal((sites, n, n)) + 1j * rng.standard_normal((sites, n, n))


def one_tangent(scene, seed, mu_scale=1.0, nu_scale=1.0):
    """The harmonic tangent (mu, nu) of one seed: the one column of
    ``random_tangent(scene, [seed])``."""
    mu, nu = random_tangent(scene, [seed], mu_scale, nu_scale)
    return mu[:, 0], nu[..., 0]
