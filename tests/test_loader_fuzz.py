"""Line mutations of a saved mesh and a saved generator file: each loader
either returns or raises one of its documented errors, never anything
else (no IndexError, ValueError, MemoryError or wrapped ids)."""

import pytest
from hypothesis import given, settings, strategies as st

from modulilab.bundle import CocycleError, RelationError, load_cocycle, save_cocycle, su2_preset
from modulilab.surface import (
    ChartError,
    MeshError,
    RecordFileError,
    build_polygon_gluing,
    load_mesh,
    save_mesh,
)

TOKENS = ["-1", "0", str(10**9), "nan", "inf", "1e400", "x"]
MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 10**6)),
    st.tuples(st.just("duplicate"), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("replace"), st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(TOKENS)),
)


def mutate(lines: list, mutation) -> list:
    """``lines`` with one line dropped, duplicated or swapped with another,
    or one of its fields replaced by a token (indices taken modulo)."""
    lines = list(lines)
    what, i, *rest = mutation
    i %= len(lines)
    if what == "drop":
        del lines[i]
    elif what == "duplicate":
        lines.insert(i, lines[i])
    elif what == "swap":
        j = rest[0] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        parts = lines[i].split()
        parts[rest[0] % len(parts)] = rest[1]
        lines[i] = " ".join(parts)
    return lines


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The genus-2 fan (with its layout) and its su2 generators, saved."""
    d = tmp_path_factory.mktemp("saved")
    fan = build_polygon_gluing(2)
    save_mesh(fan, d / "fan.surf")
    save_cocycle(su2_preset(fan), d / "su2.gen")
    return d, fan


@settings(max_examples=100, deadline=None)
@given(mutation=MUTATION)
def test_load_mesh_raises_only_its_errors(saved, mutation):
    d, _ = saved
    p = d / "mutated.surf"
    p.write_text("\n".join(mutate((d / "fan.surf").read_text().splitlines(), mutation)) + "\n")
    try:
        load_mesh(p)
    except (RecordFileError, MeshError, ChartError):
        pass


@settings(max_examples=100, deadline=None)
@given(mutation=MUTATION)
def test_load_cocycle_raises_only_its_errors(saved, mutation):
    d, fan = saved
    p = d / "mutated.gen"
    p.write_text("\n".join(mutate((d / "su2.gen").read_text().splitlines(), mutation)) + "\n")
    try:
        load_cocycle(fan, p)
    except (RecordFileError, CocycleError, RelationError):
        pass
