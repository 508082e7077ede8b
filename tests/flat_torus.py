"""Flat-torus test harness: a regular triangulated torus with planar
charts, built from face triples, and a cross-check of the End(E)
harmonic projector against closed-form continuum answers.  The torus is
a degenerate geometry (genus 1) that only the tests use."""

from __future__ import annotations

from typing import Optional

import numpy as np

from modulilab.bundle import Scene, trivial_cocycle
from modulilab.oracle import spectral_norm
from modulilab.surface import ConformalSurface, HalfEdgeMesh, MeshError, equip_conformal, validate_mesh
from conftest import dense_projection


def mesh_from_faces(faces, genus: int, layout: Optional[np.ndarray] = None) -> HalfEdgeMesh:
    """Build a half-edge mesh from (v0,v1,v2) triples.

    Each undirected vertex pair must be shared by exactly two faces with
    opposite orientations (used by the torus cross-check harness; the
    polygon gluings have multi-edges and cannot be expressed this way).
    """
    faces = [tuple(int(v) for v in f) for f in faces]
    F = len(faces)
    H = 3 * F
    origin = np.zeros(H, dtype=np.int64)
    for f, (a, b, c) in enumerate(faces):
        origin[3 * f] = a
        origin[3 * f + 1] = b
        origin[3 * f + 2] = c
    directed: dict[tuple[int, int], int] = {}
    for f, (a, b, c) in enumerate(faces):
        for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            if (p, q) in directed:
                raise MeshError(f"duplicate directed edge {(p, q)}")
            directed[(p, q)] = 3 * f + k
    twin = np.full(H, -1, dtype=np.int64)
    for (p, q), h in directed.items():
        t = directed.get((q, p))
        if t is None:
            raise MeshError(f"boundary edge {(p, q)} in closed mesh")
        twin[h] = t
    n_vertices = int(origin.max()) + 1
    mesh = HalfEdgeMesh(
        origin=origin, twin=twin, genus=genus, n_vertices=n_vertices, layout=layout
    )
    validate_mesh(mesh)
    return mesh


def build_torus(m: int) -> HalfEdgeMesh:
    """Regular m x m triangulated flat torus with planar charts."""
    if m < 2:
        raise ValueError("torus grid needs m >= 2")

    def vid(i: int, j: int) -> int:
        return (i % m) * m + (j % m)

    faces = []
    layout_rows = []
    for i in range(m):
        for j in range(m):
            z00 = complex(i, j)
            z10 = complex(i + 1, j)
            z01 = complex(i, j + 1)
            z11 = complex(i + 1, j + 1)
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            layout_rows.append((z00, z10, z11))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
            layout_rows.append((z00, z11, z01))
    layout = np.array(layout_rows, dtype=complex)
    return mesh_from_faces(faces, genus=1, layout=layout)


def torus_surface(m: int) -> ConformalSurface:
    return equip_conformal(build_torus(m), layout="stored", density="uniform")


def torus_spectral_crosscheck(rank: int = 1, sizes=(4, 8, 16)) -> dict:
    """Compare the mesh harmonic projector with the continuum answer.

    On the flat torus with the trivial bundle the continuum harmonic
    (0,1)-forms are the constants.  The report carries the projector
    idempotency residual, the residual of the constant form under
    dbar* and the projector error on a sampled smooth form for each
    refinement level (the error must decrease).
    """
    report: dict = {"levels": []}
    for m in sizes:
        S = torus_surface(m)
        scene = Scene(S, trivial_cocycle(S.mesh, rank))
        cx = scene.endo
        F, n = S.n_faces, rank
        # constant (0,1)-form is discretely harmonic on the regular torus
        const = np.broadcast_to(np.eye(n), (F, n, n)).reshape(-1)
        r_const = np.linalg.norm(cx.star(cx.dbar, const))
        # projector algebra on the dense materialization
        P = dense_projection(cx)
        r_idem = spectral_norm(P @ P - P)
        # smooth test form: coefficient exp(2 pi i (x+y)/m) sampled at barycenters;
        # its continuum harmonic projection is zero (nonzero Fourier mode).
        bary = np.mean(S.chart, axis=1)
        coeff = np.exp(2j * np.pi * (bary.real + bary.imag) / m)
        alpha = (coeff[:, None, None] * np.broadcast_to(np.eye(n), (F, n, n))).reshape(-1)
        proj = cx.harmonic_project(alpha)
        num = np.sqrt(abs(np.sum(cx.w1 * proj * np.conj(proj))))
        den = np.sqrt(abs(np.sum(cx.w1 * alpha * np.conj(alpha))))
        report["levels"].append(
            {
                "m": m,
                "idempotency": float(r_idem),
                "constant_form_residual": float(r_const),
                "smooth_projection_error": float(num / den),
            }
        )
    errs = [lvl["smooth_projection_error"] for lvl in report["levels"]]
    report["monotone_decrease"] = all(b < a for a, b in zip(errs, errs[1:]))
    return report
