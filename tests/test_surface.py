import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modulilab.surface import (
    ChartError,
    MeshError,
    MeshFileError,
    UnsupportedGenusError,
    build_polygon_gluing,
    equip_conformal,
    load_conformal,
    load_mesh,
    refine,
    save_conformal,
    save_mesh,
    validate_mesh,
)


def test_fan_genus2_counts(fan2):
    # glued fan: 1 boundary vertex + 1 center; 4 glued sides + 8 spokes
    assert (fan2.n_vertices, fan2.n_edges, fan2.n_faces) == (2, 12, 8)
    assert fan2.n_vertices - fan2.n_edges + fan2.n_faces == -2


def test_fan_euler_other_genus():
    for g in (2, 3, 5):
        m = build_polygon_gluing(g)
        assert m.n_vertices - m.n_edges + m.n_faces == 2 - 2 * g


def test_fan_rejects_low_genus():
    with pytest.raises(UnsupportedGenusError):
        build_polygon_gluing(1)
    with pytest.raises(UnsupportedGenusError):
        build_polygon_gluing(0)


def test_fan_labels(fan2):
    assert set(fan2.labels) == {"a1", "b1", "a2", "b2"}


def test_refine_counts(fan2, fan2_r1):
    assert fan2_r1.n_faces == 4 * fan2.n_faces == 32
    assert fan2_r1.genus == fan2.genus
    assert fan2_r1.n_vertices == fan2.n_vertices + fan2.n_edges


def test_refine_twice_validates(fan2_r2):
    validate_mesh(fan2_r2)  # raises on failure
    assert fan2_r2.n_faces == 128


def test_refined_faces_have_distinct_vertices(fan2_r1):
    for f in range(fan2_r1.n_faces):
        assert len(set(fan2_r1.face_vertices(f))) == 3


def test_orientation_consistency(fan2_r1):
    m = fan2_r1
    for h in range(m.n_half_edges):
        assert m.origin[m.twin[h]] == m.head(h)
        assert m.next_he(m.next_he(m.next_he(h))) == h


@settings(max_examples=8, deadline=None)
@given(g=st.integers(min_value=2, max_value=4), levels=st.integers(min_value=0, max_value=1))
def test_construction_invariants_property(g, levels):
    m = build_polygon_gluing(g)
    for _ in range(levels):
        m = refine(m)
    validate_mesh(m)
    assert m.n_vertices - m.n_edges + m.n_faces == 2 - 2 * g


def test_equip_uniform_density(surf_uni):
    assert np.all(surf_uni.density == 1.0)
    assert 0.0 < surf_uni.total_area() < np.inf


def test_equip_rotations_unit(surf_hyp, surf_uni):
    for S in (surf_hyp, surf_uni):
        assert np.max(np.abs(np.abs(S.edge_rotation) - 1.0)) <= 1e-12


def test_equip_requires_distinct_vertices(fan2):
    with pytest.raises(ChartError):
        equip_conformal(fan2, layout="stored", density="uniform")


def test_hyperbolic_density_positive(surf_hyp):
    assert np.all(surf_hyp.density > 0.0)
    assert surf_hyp.density.max() > 2 * surf_hyp.density.min()  # genuinely non-constant


def test_hyperbolic_density_needs_layout(fan2_r1):
    with pytest.raises(ChartError):
        equip_conformal(fan2_r1, layout="equilateral", density="hyperbolic")


def test_mesh_roundtrip(tmp_path, fan2_r1):
    p = tmp_path / "m.surf"
    save_mesh(fan2_r1, p)
    loaded = load_mesh(p)
    assert loaded.same_combinatorics(fan2_r1)


def test_mesh_roundtrip_base(tmp_path, fan2):
    p = tmp_path / "m.surf"
    save_mesh(fan2, p)
    assert load_mesh(p).same_combinatorics(fan2)


def test_truncated_file(tmp_path, fan2):
    p = tmp_path / "m.surf"
    save_mesh(fan2, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(MeshFileError):
        load_mesh(p)


def test_malformed_line_reports_lineno(tmp_path, fan2):
    p = tmp_path / "m.surf"
    save_mesh(fan2, p)
    lines = p.read_text().splitlines()
    lines[3] = "he wat 0 0 0 0"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFileError) as e:
        load_mesh(p)
    assert e.value.line == 4


def test_non_manifold_edge_rejected(tmp_path, fan2):
    # three half-edges claiming a cyclic twin relation encode a
    # 3-faces-per-edge configuration; the involution check must fire
    p = tmp_path / "m.surf"
    save_mesh(fan2, p)
    lines = p.read_text().splitlines()

    def patch(lineno, twin):
        parts = lines[lineno].split()
        parts[3] = str(twin)
        lines[lineno] = " ".join(parts)

    # he records start at line index 1; build twin cycle 0 -> 1 -> 2 -> 0
    patch(1, 1)
    patch(2, 2)
    patch(3, 0)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError):
        load_mesh(p)


def test_conformal_roundtrip(tmp_path, fan2_r1, surf_hyp_r1):
    p = tmp_path / "m.conf"
    save_conformal(surf_hyp_r1, p)
    loaded = load_conformal(fan2_r1, p)
    np.testing.assert_allclose(loaded.chart, surf_hyp_r1.chart, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.density, surf_hyp_r1.density, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.edge_rotation, surf_hyp_r1.edge_rotation, atol=1e-15)


@pytest.mark.parametrize(
    "line, face, message",
    [
        (0, "-1", "line 1: face id -1 out of range"),
        (3, "32", "line 4: face id 32 out of range"),
        (3, "0", "line 4: duplicate chart record for face 0"),
        (-1, "-1", "face id -1 out of range"),
        (-1, "0", "duplicate rho record for face 0"),
    ],
)
def test_conformal_rejects_bad_face_ids(tmp_path, fan2_r1, surf_hyp_r1, line, face, message):
    # a negative id must not wrap to the last face, nor a repeated one
    # silently overwrite the first
    assert fan2_r1.n_faces == 32
    p = tmp_path / "m.conf"
    save_conformal(surf_hyp_r1, p)
    lines = p.read_text().splitlines()
    parts = lines[line].split()
    parts[1] = face
    lines[line] = " ".join(parts)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFileError, match=message):
        load_conformal(fan2_r1, p)


def test_refinement_record_links_parent(fan2, fan2_r1):
    assert fan2_r1.refinement is not None
    assert fan2_r1.refinement.parent is fan2
