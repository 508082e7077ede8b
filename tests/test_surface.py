import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modulilab.surface import (
    ChartError,
    HalfEdgeMesh,
    MeshError,
    RecordFileError,
    UnsupportedGenusError,
    build_polygon_gluing,
    equip_conformal,
    load_mesh,
    next_index,
    refine,
    save_mesh,
    validate_mesh,
)
from conftest import pinched_mesh, two_sheet_mesh
from flat_torus import build_torus


def _same_mesh(a, b):
    """Equal combinatorics: origins, twins, genus and vertex count."""
    return (
        np.array_equal(a.origin, b.origin)
        and np.array_equal(a.twin, b.twin)
        and (a.genus, a.n_vertices) == (b.genus, b.n_vertices)
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


def test_refine_counts(fan2, fan2_r1):
    assert fan2_r1.n_faces == 4 * fan2.n_faces == 32
    assert fan2_r1.genus == fan2.genus
    assert fan2_r1.n_vertices == fan2.n_vertices + fan2.n_edges


def test_refine_twice_validates(fan2_r2):
    validate_mesh(fan2_r2)  # raises on failure
    assert fan2_r2.n_faces == 128


def test_refined_faces_have_distinct_vertices(fan2_r1):
    for f in range(fan2_r1.n_faces):
        assert len(set(fan2_r1.origin[3 * f : 3 * f + 3])) == 3


def test_orientation_consistency(fan2_r1):
    m = fan2_r1
    nxt = next_index(m.n_half_edges)
    for h in range(m.n_half_edges):
        assert m.origin[m.twin[h]] == m.origin[nxt[h]]
        assert nxt[nxt[nxt[h]]] == h


def test_mesh_is_validated_at_construction(fan2_r1):
    # disconnected or non-manifold data raises MeshError at construction,
    # so no invalid HalfEdgeMesh exists to be passed on
    m = fan2_r1
    with pytest.raises(MeshError, match="not connected"):
        HalfEdgeMesh(
            origin=np.concatenate([m.origin, m.origin + m.n_vertices]),
            twin=np.concatenate([m.twin, m.twin + m.n_half_edges]),
            genus=m.genus,
            n_vertices=2 * m.n_vertices,
        )
    twin = m.twin.copy()
    twin[[0, 1, 2]] = [1, 2, 0]  # a twin cycle: three half-edges on one edge
    with pytest.raises(MeshError, match="non-manifold"):
        HalfEdgeMesh(origin=m.origin, twin=twin, genus=m.genus, n_vertices=m.n_vertices)



@pytest.mark.parametrize(
    "build, message",
    [
        (two_sheet_mesh, "mesh is not connected"),
        (pinched_mesh, "vertex 2 is not a disk: the half-edges leaving it form 2 fans, not one"),
    ],
    ids=["two_sheets", "pinched"],
)
def test_non_surfaces_rejected(build, message):
    # Euler's formula holds on both and their vertex graphs are connected,
    # but the faces of the first fall apart in two, and two sheets of the
    # second meet at a vertex
    fields = build()
    V, F = fields["n_vertices"], fields["twin"].size // 3
    assert V - 3 * F // 2 + F == 2 - 2 * fields["genus"]
    with pytest.raises(MeshError) as err:
        HalfEdgeMesh(**fields)
    assert str(err.value) == message


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
    assert 0.0 < np.sum(surf_uni.density * surf_uni.area) < np.inf


def test_equip_rotations_unit(surf_hyp, surf_uni):
    for S in (surf_hyp, surf_uni):
        assert np.max(np.abs(np.abs(S.edge_rotation) - 1.0)) <= 1e-12


def test_equip_requires_distinct_vertices(fan2):
    with pytest.raises(ChartError):
        equip_conformal(fan2, layout="stored", density="uniform")


def test_hyperbolic_density_positive(surf_hyp):
    assert np.all(surf_hyp.density > 0.0)
    assert surf_hyp.density.max() > 2 * surf_hyp.density.min()  # genuinely non-constant


def test_equip_rejects_non_finite_chart_area(fan2_r1):
    # corners this far out (finite, so a layout record reads them)
    # overflow the chart areas to inf: refused, not an infinite total area
    from dataclasses import replace

    mesh = replace(fan2_r1, layout=fan2_r1.layout * 1e155)
    with np.errstate(over="ignore"), pytest.raises(ChartError, match="non-finite"):
        equip_conformal(mesh, layout="stored", density="uniform")


def test_hyperbolic_density_needs_layout(fan2_r1):
    with pytest.raises(ChartError):
        equip_conformal(fan2_r1, layout="equilateral", density="hyperbolic")


def test_mesh_roundtrip(tmp_path, fan2_r1):
    p = tmp_path / "m.surf"
    save_mesh(fan2_r1, p)
    loaded = load_mesh(p)
    assert _same_mesh(loaded, fan2_r1)
    assert loaded.layout.tobytes() == fan2_r1.layout.tobytes()


def test_mesh_roundtrip_base(tmp_path, fan2):
    p = tmp_path / "m.surf"
    save_mesh(fan2, p)
    assert _same_mesh(load_mesh(p), fan2)


def test_mesh_without_layout_loads(tmp_path, fan2):
    # layout records are optional: a file without them loads with no layout
    p = _edited(tmp_path, fan2, lambda ls: [x for x in ls if not x.startswith("layout")])
    loaded = load_mesh(p)
    assert _same_mesh(loaded, fan2) and loaded.layout is None


def test_torus_mesh_roundtrip(tmp_path):
    # genus 1, a layout with integer corners
    m = build_torus(3)
    p = tmp_path / "t.surf"
    save_mesh(m, p)
    loaded = load_mesh(p)
    assert _same_mesh(loaded, m)
    assert loaded.layout.tobytes() == m.layout.tobytes()


def test_truncated_file(tmp_path, fan2):
    # the last three half-edge records and the layout records are cut off
    p = _edited(tmp_path, fan2, lambda ls: ls[:-11])
    with pytest.raises(RecordFileError, match="^missing he record for 21$"):
        load_mesh(p)


def test_malformed_line_reports_lineno(tmp_path, fan2):
    p = _edited(tmp_path, fan2, lambda ls: _set_field(ls, 3, 1, "wat"))
    with pytest.raises(RecordFileError) as e:
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
    # the layout records carry the stored charts: equipping the loaded
    # mesh gives the same charts, density and rotations, bit for bit
    p = tmp_path / "m.surf"
    save_mesh(fan2_r1, p)
    loaded = equip_conformal(load_mesh(p), layout="stored", density="hyperbolic")
    for name in ("chart", "density", "area", "edge_rotation"):
        assert getattr(loaded, name).tobytes() == getattr(surf_hyp_r1, name).tobytes(), name


def _edited(tmp_path, mesh, edit):
    """A saved file of ``mesh`` with ``edit`` applied to its lines."""
    p = tmp_path / "m.surf"
    save_mesh(mesh, p)
    p.write_text("\n".join(edit(p.read_text().splitlines())) + "\n")
    return p


def _set_field(lines, index, field, value):
    parts = lines[index].split()
    parts[field] = value
    lines[index] = " ".join(parts)
    return lines


# the genus-2 fan file: line 1 is the header, lines 2-25 the he records
# of half-edges 0..23 and lines 26-33 the layout records of faces 0..7
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: ls[:3] + ["sigma 0 1.0 2.0"] + ls[3:], "line 4: unknown record 'sigma'"),
        (lambda ls: _set_field(ls, 27, 2, "1.5x"), "line 28: layout record: non-numeric entry"),
        (lambda ls: _set_field(ls, 27, 1, "two"), "line 28: layout record: non-integer entry in 'two'"),
        (lambda ls: _set_field(ls, 27, 3, "nan"), "line 28: layout record: non-finite entry"),
        (lambda ls: _set_field(ls, -1, 4, "inf"), "line 33: layout record: non-finite entry"),
        (lambda ls: _set_field(ls, 27, 1, "-1"), "line 28: layout record: -1 is out of range 0..7"),
        (lambda ls: _set_field(ls, 27, 1, "100000"), "line 28: layout record: 100000 is out of range 0..7"),
        (lambda ls: _set_field(ls, 27, 1, "1"), "line 28: repeated layout record for 1"),
        (lambda ls: [x for x in ls if x.split()[:2] != ["layout", "7"]], "missing layout record for 7"),
        (lambda ls: [x for x in ls if x.split()[:2] != ["he", "0"]], "missing he record for 0"),
        (lambda ls: _set_field(ls, 25, 7, ls[25].split()[7] + " 0.5"), "line 26: layout record needs 7 fields, got 8"),
        (lambda ls: ls[:-1] + [" ".join(ls[-1].split()[:-1])], "line 33: layout record needs 7 fields, got 6"),
        (lambda ls: _set_field(ls, 27, 2, "1" * 10**6 + "x"), "line 28: layout record: non-numeric entry in '1{40}'$"),
    ],
    ids=[
        "unknown", "non_numeric", "non_integer_id", "nan", "inf", "negative_id", "id_out_of_range",
        "duplicate", "missing_layout", "missing_he", "layout_count_high", "layout_count_low", "huge_token",
    ],
)
def test_layout_record_rejects(tmp_path, fan2, edit, message):
    p = _edited(tmp_path, fan2, edit)
    with pytest.raises(RecordFileError, match=message) as e:
        load_mesh(p)
    # a bad token is echoed cut short, however long it is
    assert len(str(e.value)) < 200


def _labelled(index, label):
    """Append ``label`` to the record at ``index``."""
    return lambda ls: _set_field(ls, index, -1, f"{ls[index].split()[-1]} {label}")


@pytest.mark.parametrize(
    "header, message",
    [
        ("surf 2 12 -1 2", "line 1: surf record: -1 is out of range 1.."),
        ("surf 2 12 0 2", "line 1: surf record: 0 is out of range 1.."),
        ("surf 2 12 9 2", "line 1: surf record: V, E, F = 2, 12, 9 do not close up"),
        ("surf 2 12 8 3", "line 1: surf record: V, E, F = 2, 12, 8 do not close up to a surface of genus 3"),
        ("surf 2 12 8", "line 1: surf record needs 4 fields, got 3"),
    ],
    ids=["negative_faces", "zero_faces", "odd_faces", "wrong_genus", "short"],
)
def test_mesh_header_rejected(tmp_path, fan2, header, message):
    # nothing is sized from a header that is not a closed triangulation
    p = _edited(tmp_path, fan2, lambda ls: [header] + ls[1:])
    with pytest.raises(RecordFileError, match=message):
        load_mesh(p)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: ls[1:2] + ls[:1] + ls[2:], "line 1: unknown record 'he' before 'surf'"),
        (lambda ls: ls[:2] + ls[:1] + ls[2:], "line 3: repeated surf record"),
        (lambda ls: ["# a comment", ""] + ls, None),
        # a trailing label, as older files carried, is a sixth field
        (_labelled(8, "c1"), "line 9: he record needs 5 fields, got 6$"),
        (_labelled(8, "a0"), "line 9: he record needs 5 fields, got 6$"),
        (_labelled(8, "a01"), "line 9: he record needs 5 fields, got 6$"),
        (_labelled(8, "a3"), "line 9: he record needs 5 fields, got 6$"),
        (_labelled(8, "b10"), "line 9: he record needs 5 fields, got 6$"),
        (_labelled(8, "a\u00b2"), "line 9: he record needs 5 fields, got 6$"),
        (lambda ls: _labelled(23, "a1")(_labelled(8, "b2")(ls)), "line 9: he record needs 5 fields, got 6$"),
        (lambda ls: _set_field(ls, 8, 4, "9"), "line 9: half-edges must be grouped 3 per face"),
        (lambda ls: _set_field(ls, 8, 2, "2"), "line 9: he record: 2 is out of range 0..1"),
    ],
    ids=[
        "before_header", "repeated_header", "comments", "unknown_label", "label_zero", "label_leading_zero",
        "label_above_genus", "label_two_digits", "label_superscript", "repeated_label", "bad_next", "bad_origin",
    ],
)
def test_mesh_records_rejected(tmp_path, fan2, edit, message):
    p = _edited(tmp_path, fan2, edit)
    if message is None:
        assert _same_mesh(load_mesh(p), fan2)
        return
    with pytest.raises(RecordFileError, match=message):
        load_mesh(p)


def test_huge_genus_header_sizes_nothing(tmp_path):
    # a header that closes up at genus 10**6 is rejected without building
    # anything of the genus's size, and a sixth field gets a short message
    import tracemalloc

    header = "surf 2 6000000 4000000 1000000\n"
    p = tmp_path / "m.surf"
    p.write_text(header)
    tracemalloc.start()
    try:
        with pytest.raises(RecordFileError, match="missing he record for 0"):
            load_mesh(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    for token in ("zz", "a1000001", "q" * 10_000):
        p.write_text(header + f"he 0 0 1 1 0 {token}\n")
        with pytest.raises(RecordFileError, match="^line 2: he record needs 5 fields, got 6$") as e:
            load_mesh(p)
        assert len(str(e.value)) < 200
