import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

CFG_SMALL = {
    "mesh": {"genus": 2, "refinements": 1, "layout": "stored", "density": "hyperbolic"},
    "bundle": {"preset": "su2"},
    "seeds": [0, 1],
}


def run_cli(*args, python_flags=(), **kwargs):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "modulilab.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "cfg.json"
    p.write_text(json.dumps(CFG_SMALL))
    return str(p)


def _strict_json(text: str):
    """``json.loads`` that refuses the NaN, Infinity and -Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_bad_config_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    r = run_cli("check-operators", "--config", str(p))
    assert r.returncode == 2
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"mesh": {"genus": 1}}))
    assert run_cli("check-operators", "--config", str(p2)).returncode == 2
    r = run_cli("positivity", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "cannot read config" in r.stderr and "Traceback" not in r.stderr
    # a config that names out (the --out flag sets the out directory), and
    # a config that is not UTF-8 or nests deeper than the decoder recurses
    cases = [(json.dumps({"out": out}).encode(), "unknown config key out") for out in (5, None, "", "x\u0000y")]
    cases += [(b"\xff\xfe{}", "cannot read config"), (b"[" * 200_000, "cannot read config")]
    for content, field in cases:
        p.write_bytes(content)
        r = run_cli("positivity", "--config", str(p))
        assert r.returncode == 2, r.stderr
        assert field in r.stderr and "Traceback" not in r.stderr
    # an --out directory that cannot be created, or is empty
    (tmp_path / "file").write_text("")
    p.write_text("{}")
    for out in (str(tmp_path / "file" / "out"), ""):
        r = run_cli("positivity", "--config", str(p), "--out", out)
        assert r.returncode == 2, r.stderr
        assert "out directory" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "module, error",
    [
        ("surface", "MeshError"),
        ("surface", "ChartError"),
        ("surface", "RecordFileError"),
        ("bundle", "CocycleError"),
        ("bundle", "RelationError"),
        ("oracle", "DenseCapError"),
        ("cli", "ConfigError"),
    ],
)
def test_input_errors_share_one_base(module, error):
    # every class the CLI maps to exit 2 derives from surface.InputError;
    # DenseCapError stays a ValueError for callers of the oracle
    import importlib

    from modulilab import oracle, surface

    assert issubclass(getattr(importlib.import_module(f"modulilab.{module}"), error), surface.InputError)
    assert issubclass(oracle.DenseCapError, ValueError)


def _write(tmp_path, cfg) -> str:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**CFG_SMALL, **cfg}))
    return str(p)


def test_empty_seed_list_exits_2(tmp_path):
    p = _write(tmp_path, {"seeds": []})
    for cmd in ("positivity", "check-operators"):
        r = run_cli(cmd, "--config", p, "--out", str(tmp_path / cmd))
        assert r.returncode == 2, r.stderr
        assert "seeds" in r.stderr and "Traceback" not in r.stderr


def test_non_integer_genus_exits_2(tmp_path):
    p = _write(tmp_path, {"mesh": {"genus": "two", "refinements": 1}})
    r = run_cli("check-operators", "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "mesh.genus" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("cmd", ["check-operators"])
def test_dense_cap_exceeded_exits_2(tmp_path, cmd):
    # the dense frame's check, dim C^0 + dim C^{0,1} <= dense_cap, is the one
    # gate of the dense command: on CFG_SMALL that sum is 56 + 128 = 184
    for cap in (10, 183):
        out = tmp_path / f"out{cap}"
        r = run_cli(cmd, "--config", _write(tmp_path, {"dense_cap": cap}), "--out", str(out))
        assert r.returncode == 2, r.stderr
        assert "dense_cap" in r.stderr and "Traceback" not in r.stderr
        assert not (out / "report.json").exists()
    out = tmp_path / "out184"
    r = run_cli(cmd, "--config", _write(tmp_path, {"dense_cap": 184}), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert _strict_json((out / "report.json").read_text())["failures"] == []


@pytest.mark.parametrize("entry", ["0.5x", "nan"])
def test_bad_generator_entry_exits_2(tmp_path, entry):
    from modulilab.bundle import save_cocycle, su2_preset
    from modulilab.surface import build_polygon_gluing

    gen = tmp_path / "su2.gen"
    save_cocycle(su2_preset(build_polygon_gluing(2)), gen)
    lines = gen.read_text().splitlines()
    fields = lines[1].split()
    fields[3] = entry
    lines[1] = " ".join(fields)
    gen.write_text("\n".join(lines) + "\n")
    p = _write(tmp_path, {"bundle": {"generator_file": str(gen)}})
    r = run_cli("check-operators", "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "line 2" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("how", ["config", "option"])
def test_negative_seed_exits_2(tmp_path, how):
    # numpy refuses negative seeds; the config check must name the field
    if how == "config":
        args = ["--config", _write(tmp_path, {"seeds": [0, -1]})]
    else:
        args = ["--config", _write(tmp_path, {}), "--seed", "-1"]
    r = run_cli("positivity", *args, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "seeds" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


def test_generator_cocycle_on_refined_mesh_file_exits_2(tmp_path):
    # generator cocycles live on the 4g-gon fan; a saved refined mesh has
    # other combinatorics and must be refused, not indexed out of range
    from modulilab.surface import build_polygon_gluing, refine, save_mesh

    mesh = tmp_path / "r1.surf"
    save_mesh(refine(build_polygon_gluing(2)), mesh)
    p = _write(tmp_path, {"mesh": {"file": str(mesh), "refinements": 0, "layout": "equilateral"}})
    r = run_cli("positivity", "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "4g-gon fan" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "build, defect", [("two_sheet_mesh", "mesh is not connected"), ("pinched_mesh", "vertex 2 is not a disk")],
    ids=["two_sheets", "pinched"],
)
def test_non_surface_mesh_file_exits_2(tmp_path, build, defect):
    # a mesh file that passes Euler's formula but is not a surface is
    # refused by every command before any operator is built
    import conftest
    from click.testing import CliRunner
    from modulilab import cli

    mesh = tmp_path / "bad.surf"
    conftest.save_mesh_fields(getattr(conftest, build)(), mesh)
    p = _write(tmp_path, {"mesh": {"file": str(mesh), "refinements": 0}, "bundle": {"preset": "trivial"}})
    for cmd in ("check-operators", "second-variation", "positivity", "projector-derivative"):
        r = CliRunner().invoke(cli.main, [cmd, "--config", p, "--out", str(tmp_path / cmd)])
        assert r.exit_code == 2, (cmd, r.output)
        assert f"config error: {defect}" in r.output and not (tmp_path / cmd / "report.json").exists()


def test_scene_error_exits_2(tmp_path):
    # a mesh file that exists but fails validation is a config-class error
    bad_mesh = tmp_path / "bad.surf"
    bad_mesh.write_text("surf 2 12 8 2\nhe 0 0 0 1 0\n")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mesh": {"file": str(bad_mesh), "refinements": 0}}))
    assert run_cli("check-operators", "--config", str(p)).returncode == 2


@pytest.mark.parametrize("header", ["surf 2 12 -1 2", "surf 2 12 0 2", "surf 2 12 9 2"])
def test_bad_mesh_header_exits_2(tmp_path, header):
    # a negative, zero or inconsistent face count is refused at line 1,
    # before any array is sized from it
    from modulilab.surface import build_polygon_gluing, save_mesh

    mesh = tmp_path / "fan.surf"
    save_mesh(build_polygon_gluing(2), mesh)
    mesh.write_text("\n".join([header] + mesh.read_text().splitlines()[1:]) + "\n")
    p = _write(tmp_path, {"mesh": {"file": str(mesh), "refinements": 0}})
    r = run_cli("positivity", "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "line 1" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("what", ["directory", "non_utf8"])
def test_unreadable_mesh_file_exits_2(tmp_path, what):
    mesh = tmp_path / "fan.surf"
    if what == "directory":
        mesh.mkdir()
    else:
        mesh.write_bytes(b"surf 2 12 8 2\n\xff\xfe 0 0\n")
    p = _write(tmp_path, {"mesh": {"file": str(mesh), "refinements": 0}})
    r = run_cli("positivity", "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert ("line 2" if what == "non_utf8" else "not a file") in r.stderr


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"mesh": {"file": 0, "genus": 2.5}}, "mesh.file"),
        ({"bundle": {"generator_file": 0}}, "bundle.generator_file"),
    ],
)
def test_file_key_that_is_not_a_string_exits_2(tmp_path, cfg, key):
    # 0 is no path, even when file descriptor 0 is a regular file
    stdin = tmp_path / "stdin.txt"
    stdin.write_text("not a mesh\n")
    p = _write(tmp_path, cfg)
    with open(stdin) as fh:
        r = run_cli("positivity", "--config", p, "--out", str(tmp_path / "out"), stdin=fh)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert f"{key} must be null or a path" in r.stderr and "not a file" in r.stderr


def test_mesh_file_of_genus_below_2_exits_2(tmp_path):
    # a torus file reaches no gate of the genus key, but runs no command
    from flat_torus import build_torus
    from modulilab.surface import save_mesh

    save_mesh(build_torus(4), tmp_path / "torus.surf")
    mesh = {"file": str(tmp_path / "torus.surf"), "refinements": 0, "density": "uniform"}
    p = _write(tmp_path, {"mesh": mesh, "bundle": {"preset": "trivial"}})
    for cmd in ("check-operators", "positivity"):
        r = run_cli(cmd, "--config", p, "--out", str(tmp_path / cmd))
        assert r.returncode == 2, r.stdout + r.stderr
        assert "mesh.file" in r.stderr and "genus 1" in r.stderr and "Traceback" not in r.stderr


def test_keys_that_a_file_decides_are_still_checked(tmp_path):
    # the file decides the value, but a malformed key is refused
    from click.testing import CliRunner
    from modulilab import cli
    from modulilab.bundle import save_cocycle, su2_preset
    from modulilab.surface import build_polygon_gluing, save_mesh

    fan, gen = str(tmp_path / "fan.surf"), str(tmp_path / "su2.gen")
    save_mesh(build_polygon_gluing(2), fan)
    save_cocycle(su2_preset(build_polygon_gluing(2)), gen)
    cases = [
        ({"mesh": {"file": fan, "genus": "abc"}}, "mesh.genus"),
        ({"mesh": {"file": fan, "genus": 1}}, "mesh.genus"),
        ({"bundle": {"generator_file": gen, "preset": "bogus"}}, "bundle.preset"),
        ({"bundle": {"preset": ["su2"]}}, "bundle.preset"),
    ]
    for cfg, key in cases:
        args = ["positivity", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]
        r = CliRunner().invoke(cli.main, args)
        assert r.exit_code == 2, (cfg, r.output)
        assert key in r.output, r.output


def test_saved_fan_mesh_file_matches_built_fan(tmp_path):
    # the mesh file keeps its layout: a saved fan under the default
    # stored layout, the saved su2 generators, or both give the
    # genus-built su2 scene's output files byte for byte.  So a report
    # cannot record how its center pair was given (no config digest).
    from modulilab.bundle import save_cocycle, su2_preset
    from modulilab.surface import build_polygon_gluing, save_mesh

    fan = build_polygon_gluing(2)
    save_mesh(fan, tmp_path / "fan.surf")
    save_cocycle(su2_preset(fan), tmp_path / "su2.gen")
    shipped = json.loads((CONFIGS / "genus2_su2.json").read_text())
    mesh_file = {**shipped["mesh"], "file": str(tmp_path / "fan.surf")}
    gen_file = {**shipped["bundle"], "generator_file": str(tmp_path / "su2.gen")}
    variants = {
        "mesh": {"mesh": mesh_file},
        "generators": {"bundle": gen_file},
        "both": {"mesh": mesh_file, "bundle": gen_file},
    }
    configs = {"shipped": CONFIGS / "genus2_su2.json"}
    for name, change in variants.items():
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps({**shipped, **change}))
    for cmd in ("second-variation", "positivity"):
        runs = {}
        for name, cfg in configs.items():
            out = tmp_path / cmd / name
            r = run_cli(cmd, "--config", str(cfg), "--seed", "0", "--out", str(out))
            assert r.returncode == 0, r.stdout + r.stderr
            runs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert "report.json" in runs["shipped"]
        for name in variants:
            assert runs[name] == runs["shipped"], (cmd, name)


def test_refined_mesh_file_matches_generated_mesh(tmp_path):
    # a twice-refined genus-3 fan read from a file (load_mesh, validate_mesh
    # and the face search on the loaded mesh) gives the outputs of the
    # generated genus-3, refinement-2 scene byte for byte
    from modulilab.surface import build_polygon_gluing, refine, save_mesh

    mesh = tmp_path / "g3r2.surf"
    save_mesh(refine(refine(build_polygon_gluing(3))), mesh)
    common = {"bundle": {"preset": "trivial"}, "seeds": [0, 1]}
    configs = {
        "generated": {**common, "mesh": {"genus": 3, "refinements": 2}},
        "file": {**common, "mesh": {"file": str(mesh), "refinements": 0}},
    }
    for cmd in ("positivity", "second-variation"):
        runs = []
        for name, cfg in configs.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(cfg))
            out = tmp_path / cmd / name
            r = run_cli(cmd, "--config", str(p), "--out", str(out))
            assert r.returncode == 0, r.stdout + r.stderr
            runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert "report.json" in runs[0] and runs[0] == runs[1], cmd


def test_check_operators(tmp_path, cfg_path):
    out = tmp_path / "out"
    r = run_cli("check-operators", "--config", cfg_path, "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] and rep["failures"] == []
    assert rep["kernel_dim"] == rep["commutant_dim"] == 1


@pytest.mark.parametrize(
    "bundle, dim",
    [({"preset": "su2"}, 5), ({"preset": "trivial"}, 2), ({"preset": "trivial", "n": 2}, 8)],
    ids=["su2", "trivial_rank1", "trivial_rank2"],
)
def test_smooth_endo_dim_counts_the_commutant(tmp_path, bundle, dim):
    # h^1 of the flat End(E) is n^2 (g - 1) + h^0 with h^0 the commutant
    # dimension: 1 for su2 and trivial rank 1, 4 for trivial rank 2
    from click.testing import CliRunner
    from modulilab import cli

    out = tmp_path / "out"
    p = _write(tmp_path, {"bundle": bundle})
    r = CliRunner().invoke(cli.main, ["check-operators", "--config", p, "--out", str(out)])
    assert r.exit_code == 0, r.output
    rep = json.loads((out / "report.json").read_text())
    assert rep["diagnostics"]["smooth_endo_dim"] == dim


def test_second_variation_cmd_and_determinism(tmp_path, cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("second-variation", "--config", cfg_path, "--out", str(out1))
    r2 = run_cli("second-variation", "--config", cfg_path, "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    rep = json.loads((out1 / "report.json").read_text())
    # conventions are written once; a sample is its seed, its three
    # systems and the stats of its one term solve, and each system holds
    # only its terms and total
    assert set(rep) == {"checks", "command", "conventions_digest", "failures", "passed", "samples"}
    assert rep["conventions_digest"]["density_policy"] == "hyperbolic"
    assert [s["seed"] for s in rep["samples"]] == [0, 1]
    for s in rep["samples"]:
        assert set(s) == {"seed", "universal", "fibered", "difference", "solver_stats"}
        for system in ("universal", "fibered", "difference"):
            assert set(s[system]) == {"terms", "total"}
        assert len(s["universal"]["terms"]) == 10
        assert len(s["fibered"]["terms"]) == 12
        assert len(s["difference"]["terms"]) == 6
        stats = s["solver_stats"]
        assert stats["terms"] == [
            "gauge_12", "gauge_21", "opvar_proj", "opvar_mu3", "opvar_mu4",
            "new_tei_mu3", "new_tei_mu4", "new_opvar_mu3_bar", "new_opvar_mu4_bar",
        ]
        assert set(stats) == {"terms", "kernel_removed", "residual", "method", "factor_reused"}


@pytest.mark.parametrize("cmd", ["check-operators", "second-variation", "positivity", "projector-derivative"])
def test_each_command_writes_only_its_report(tmp_path, cfg_path, cmd):
    # every number a command computes is in report.json, its one file
    out = tmp_path / "out"
    r = run_cli(cmd, "--config", cfg_path, "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    assert [f.name for f in out.iterdir()] == ["report.json"]


def test_trivial_rank1_mu_zero_totals_vanish(tmp_path):
    cfg = {
        "mesh": {"genus": 2, "refinements": 1, "density": "uniform"},
        "bundle": {"preset": "trivial", "n": 1},
        "seeds": [0],
        "tangent": {"mu_scale": 0.0, "nu_scale": 1.0},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    r = run_cli("second-variation", "--config", str(p), "--out", str(out))
    assert r.returncode == 0
    rep = json.loads((out / "report.json").read_text())
    for s in rep["samples"]:
        for sysname in ("universal", "fibered"):
            tot = s[sysname]["total"]
            assert abs(complex(tot["re"], tot["im"])) <= 1e-12


def test_positivity_cmd(tmp_path, cfg_path):
    out = tmp_path / "out"
    r = run_cli("positivity", "--config", cfg_path, "--out", str(out))
    assert r.returncode == 0
    rep = json.loads((out / "report.json").read_text())
    assert [row[0] for row in rep["rows"]] == [p[0] for p in rep["norm_products"]] == [0.0, 1.0]
    for (_, a, b, total), (_, norm_product) in zip(rep["rows"], rep["norm_products"]):
        assert a >= -1e-12 and b > 0 and total > 0 and norm_product > 0


@pytest.mark.parametrize("scale", ["mu_scale", "nu_scale"])
def test_positivity_honours_tangent_scales(tmp_path, scale):
    # term_a and term_b are quadratic in mu and in nu: doubling either
    # scale multiplies every row by 4; the norm product is linear in each,
    # so doubling either scale doubles it
    reps = {}
    for factor in (1.0, 2.0):
        p = _write(tmp_path, {"tangent": {scale: factor}})
        out = tmp_path / f"out{factor}"
        r = run_cli("positivity", "--config", p, "--out", str(out))
        assert r.returncode == 0, r.stdout + r.stderr
        reps[factor] = json.loads((out / "report.json").read_text())
    for key, power in (("rows", 4.0), ("norm_products", 2.0)):
        assert reps[1.0][key] and len(reps[1.0][key]) == len(reps[2.0][key]), key
        for base, scaled in zip(reps[1.0][key], reps[2.0][key]):
            assert scaled[0] == base[0]
            for b, x in zip(base[1:], scaled[1:]):
                assert abs(x - power * b) <= 1e-12 * abs(power * b), key


def test_projector_derivative_cmd(tmp_path, cfg_path):
    out = tmp_path / "out"
    r = run_cli("projector-derivative", "--config", cfg_path, "--out", str(out))
    assert r.returncode == 0
    rep = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in rep["checks"]] == ["fd_error_geometric_at_1e-4", "loglog_slope_geometric_near_2"]
    assert abs(rep["slope"] - 2.0) <= 0.2
    assert [h for h, _ in rep["errors"]] == [1e-2, 1e-3, 1e-4]
    assert rep["errors"][-1][1] == rep["checks"][0]["value"]


def test_projector_derivative_ignores_dense_cap(tmp_path):
    # the sweep builds no dense frame, so dense_cap bounds check-operators alone
    out = tmp_path / "out"
    r = run_cli("projector-derivative", "--config", _write(tmp_path, {"dense_cap": 10}), "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    assert _strict_json((out / "report.json").read_text())["failures"] == []


def test_projector_derivative_outputs_repeat(tmp_path, cfg_path):
    runs = [tmp_path / "first", tmp_path / "again"]
    for out in runs:
        r = run_cli("projector-derivative", "--config", cfg_path, "--out", str(out))
        assert r.returncode == 0, r.stdout + r.stderr
    assert (runs[0] / "report.json").read_bytes() == (runs[1] / "report.json").read_bytes()


# adjoint_trials and oracle_rhs are no longer config keys: whatever their
# value, they are refused by name as unknown keys
@pytest.mark.parametrize("field", ["dense_cap", "adjoint_trials", "oracle_rhs"])
@pytest.mark.parametrize("value", ["big", 1.5, -1])
def test_count_fields_must_be_positive_integers(tmp_path, field, value):
    p = _write(tmp_path, {field: value})
    r = run_cli("check-operators", "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert field in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "cmd, override, field",
    [
        ("positivity", {"seeds": [0, 0]}, "seeds"),
        ("second-variation", {"tangent": {"mu_scale": "x"}}, "tangent.mu_scale"),
        ("positivity", {"bundle": {"preset": "trivial", "n": "two"}}, "bundle.n"),
    ],
)
def test_typed_fields_exit_2(tmp_path, cmd, override, field):
    p = _write(tmp_path, override)
    r = run_cli(cmd, "--config", p, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert field in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "override, field",
    [
        ({"seeds": [0, 0]}, "seeds"),
        ({"seeds": 3}, "seeds"),
        ({"tangent": {"nu_scale": None}}, "tangent.nu_scale"),
        ({"bundle": {"preset": "trivial", "n": 0}}, "bundle.n"),
        ({"bundle": {"preset": "trivial", "n": 1.0}}, "bundle.n"),
        ({"tangent": 1.0}, "tangent"),
    ],
)
def test_typed_fields_rejected_by_load_config(tmp_path, override, field):
    from modulilab.cli import ConfigError, load_config

    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(_write(tmp_path, override))


@pytest.mark.parametrize(
    "override, key",
    [
        ({"seed": [5]}, "seed"),
        ({"mesh": {"genera": 3}}, "mesh.genera"),
        ({"bundle": {"d": 3}}, "bundle.d"),
        # gates and finite-difference steps are code, not config
        ({"tolerances": {"projector": 1e-8}}, "tolerances"),
        ({"tangent": {"mu": 2.0}}, "tangent.mu"),
        ({"fd_steps": [1e-3, 1e-4, 1e-5]}, "fd_steps"),
    ],
)
def test_unknown_keys_rejected_at_every_level(tmp_path, override, key):
    from modulilab.cli import ConfigError, load_config

    with pytest.raises(ConfigError, match=f"unknown config key {re.escape(key)}$"):
        load_config(_write(tmp_path, override))


def test_unknown_key_exits_2(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"tolerances": {"projectr": 1e-30}, "seed": [5], "adjoint_trials": 7}))
    r = run_cli("check-operators", "--config", str(p), "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "unknown config key" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seeds": [0], "seeds": [1], "mesh": {"refinements": 1}}', "seeds"),
        ('{"seeds": [0], "mesh": {"refinements": 1, "genus": 2, "refinements": 0}}', "refinements"),
    ],
)
def test_repeated_key_exits_2(tmp_path, text, key):
    # JSON parsers keep the last of a repeated key; a config that says a
    # thing twice is refused at any depth instead of running one of them
    from modulilab.cli import ConfigError, load_config

    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match=f"repeated config key {key}$"):
        load_config(str(p))
    r = run_cli("positivity", "--config", str(p), "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert f"repeated config key {key}" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("cmd", ["second-variation", "positivity"])
def test_solver_failure_is_a_failing_check(tmp_path, cmd):
    # at mu_scale 1e300 the solve residual is nan, and at 1e160 the solves
    # pass but the terms overflow: each seed becomes a failing check that
    # names its error, and report.json stays strict JSON.  The overflow
    # warns nothing, so that warnings turned into errors change nothing.
    cases = [
        (1e300, [0], "SolverError: mu projection of tangent seed 0: ", ()),
        (1e160, [0, 1], "FloatingPointError", ()),
        (1e160, [0, 1], "FloatingPointError", ("-W", "error")),
    ]
    for i, (scale, seeds, error, flags) in enumerate(cases):
        out = tmp_path / f"out{i}"
        p = _write(tmp_path, {"seeds": seeds, "tangent": {"mu_scale": scale}})
        r = run_cli(cmd, "--config", p, "--out", str(out), python_flags=flags)
        assert r.returncode == 1, r.stdout + r.stderr
        assert "Traceback" not in r.stderr and "RuntimeWarning" not in r.stderr, r.stderr
        rep = _strict_json((out / "report.json").read_text())
        assert rep["failures"] == [f"evaluated_seed{s}" for s in seeds]
        assert all(error in c["message"] for c in rep["checks"])
        for key in ("samples",) if cmd == "second-variation" else ("rows", "norm_products"):
            assert rep[key] == [], key


def test_solver_failure_outside_the_seeds_is_a_failing_check(monkeypatch, tmp_path):
    # a failed solve in check-operators' dense materialization is the one
    # failing check ``evaluated``, exit 1
    from click.testing import CliRunner
    from modulilab import cli
    from modulilab._complexes import DolbeaultComplex, SolverError

    def failing(self, h):
        raise SolverError("solve relative residual nan exceeds 1e-08")

    monkeypatch.setattr(DolbeaultComplex, "delta0_solve", failing)
    out = tmp_path / "out"
    r = CliRunner().invoke(cli.main, ["check-operators", "--config", _write(tmp_path, {}), "--out", str(out)])
    assert r.exit_code == 1, r.output
    rep = _strict_json((out / "report.json").read_text())
    assert rep["failures"] == ["evaluated"]
    assert rep["checks"][0]["message"] == "SolverError: solve relative residual nan exceeds 1e-08"


def test_memory_error_building_the_scene_is_a_failing_check(monkeypatch, tmp_path):
    # a scene too large to allocate is the one failing check ``evaluated``,
    # exit 1, with the report written
    from click.testing import CliRunner
    from modulilab import cli

    def failing(genus):
        raise MemoryError("Unable to allocate 8.94 GiB")

    monkeypatch.setattr(cli, "build_polygon_gluing", failing)
    out = tmp_path / "out"
    r = CliRunner().invoke(cli.main, ["positivity", "--config", _write(tmp_path, {}), "--out", str(out)])
    assert r.exit_code == 1, r.output
    rep = _strict_json((out / "report.json").read_text())
    assert rep["failures"] == ["evaluated"]
    assert rep["checks"][0]["message"] == "MemoryError: Unable to allocate 8.94 GiB"


def test_huge_genus_is_a_failing_check_under_an_address_space_limit(tmp_path):
    # the 4g-gon fan of genus 1e8 would need about 9 GiB for its first
    # array; load_config rejects its size before anything is allocated, so
    # under a 4 GiB address-space limit on the child it is a config error,
    # exit 2, naming the size and the bound
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"mesh": {"genus": 100_000_000, "refinements": 0}, "seeds": [0]}))
    out = tmp_path / "out"
    r = run_cli("positivity", "--config", str(p), "--out", str(out), preexec_fn=limit)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert "1000000000" in r.stderr and "327680" in r.stderr, r.stderr
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "mesh, bundle, size",
    [
        ({"genus": 100_000_000, "refinements": 0}, {}, "1000000000"),
        ({"genus": 2, "refinements": 8}, {}, "1310720"),
        ({"genus": 3, "refinements": 7}, {}, "491520"),
        ({"genus": 2, "refinements": 10**9}, {}, "at least "),
        ({"genus": 2, "refinements": 8}, {"preset": "trivial", "n": 1}, "524288"),
    ],
)
def test_size_bound_rejects_before_allocating(tmp_path, mesh, bundle, size):
    # the size (n^2 m^2 + 1) F/2 of a generated mesh is checked in
    # load_config, in well under 0.1 s, also for a genus or a refinement
    # count far past it
    import time

    from modulilab import cli

    p = _write(tmp_path, {"mesh": mesh, "bundle": bundle})
    t0 = time.perf_counter()
    with pytest.raises(cli.ConfigError, match=f"\\(n\\^2 m\\^2 \\+ 1\\) F/2 = {size}.*above the bound {cli.MAX_UNKNOWNS}"):
        cli.load_config(p)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("refinements, n", [(0, 33), (1, 33), (1, 64)])
def test_rank_bound_rejects_before_allocating(tmp_path, refinements, n):
    # rank 33 fits the size bound at r0 and r1, but it is past the largest
    # rank measured; the commutant's n^2 x n^2 Gram matrix is the one
    # object of n^4 entries a run forms
    import time

    from modulilab import cli

    p = _write(tmp_path, {"mesh": {"genus": 2, "refinements": refinements}, "bundle": {"preset": "trivial", "n": n}})
    t0 = time.perf_counter()
    with pytest.raises(cli.ConfigError, match=f"has rank {n}, above the bound MAX_RANK = {cli.MAX_RANK}$"):
        cli.load_config(p)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize(
    "mesh, bundle",
    [
        ({"genus": 2, "refinements": 7}, {}),  # su2 at r7: the size bound itself
        ({"genus": 2, "refinements": 7}, {"preset": "trivial", "n": 2}),  # the size bound
        ({"genus": 2, "refinements": 7}, {"preset": "trivial", "n": 1}),
        ({"genus": 5, "refinements": 7}, {"preset": "trivial", "n": 1}),  # rank 1 at the size bound
        ({"genus": 20_480, "refinements": 1}, {"preset": "trivial", "n": 1}),  # the same F at r1
        ({"genus": 4, "refinements": 6}, {"preset": "trivial", "n": 3}),  # rank 3 at the size bound
        ({"genus": 3, "refinements": 6}, {}),
        ({"genus": 2, "refinements": 3}, {"preset": "trivial", "n": 16}),
        ({"genus": 2, "refinements": 5}, {"preset": "trivial", "n": 8}),  # rank 8 at the size bound
        ({"genus": 2, "refinements": 1}, {"preset": "trivial", "n": 32}),
        ({"genus": 2, "refinements": 3}, {"preset": "trivial", "n": 32}),  # the rank bound at the size bound
        ({"genus": 2, "refinements": 4}, {"preset": "trivial", "n": 16}),  # rank 16 at the size bound
    ],
)
def test_size_bound_admits_the_ladder(tmp_path, mesh, bundle):
    from modulilab import cli

    cli.load_config(_write(tmp_path, {"mesh": mesh, "bundle": bundle}))


def test_size_bound_covers_file_backed_pairs(tmp_path):
    # a mesh file or a generator file is sized once the base pair is
    # built, from its own face count and rank, before any refinement
    import time

    from click.testing import CliRunner
    from modulilab import cli
    from modulilab.bundle import from_generators, save_cocycle
    from modulilab.surface import build_polygon_gluing, save_mesh

    fan = build_polygon_gluing(2)
    save_mesh(fan, tmp_path / "fan.surf")
    for n in (3, 32):
        save_cocycle(from_generators(fan, n, 0, [np.eye(n)] * 4), tmp_path / f"rank{n}.gen")
    # dense rank-2 generators: every entry of each transport is nonzero, m = 2
    A, B = np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    save_cocycle(from_generators(fan, 2, 0, [A, A, B, B]), tmp_path / "dense2.gen")
    size = f"above the bound {cli.MAX_UNKNOWNS}"
    cases = [
        ({"file": str(tmp_path / "fan.surf"), "refinements": 9}, {"preset": "trivial", "n": 1},
         f"(n^2 m^2 + 1) F/2 = 2097152, {size}"),
        ({"refinements": 7}, {"generator_file": str(tmp_path / "rank3.gen")}, f"(n^2 m^2 + 1) F/2 = 655360, {size}"),
        ({"refinements": 7}, {"generator_file": str(tmp_path / "dense2.gen")},
         f"rank 2 and m = 2 has size (n^2 m^2 + 1) F/2 = 1114112, {size}"),
        ({"refinements": 4}, {"generator_file": str(tmp_path / "rank32.gen")}, f"(n^2 m^2 + 1) F/2 = 1049600, {size}"),
    ]
    for mesh, bundle, message in cases:
        p = _write(tmp_path, {"mesh": mesh, "bundle": bundle})
        t0 = time.perf_counter()
        r = CliRunner().invoke(cli.main, ["positivity", "--config", p, "--out", str(tmp_path / "out")])
        assert time.perf_counter() - t0 < 1.0
        assert r.exit_code == 2, r.output
        assert message in r.output


def test_size_bound_counts_transport_nonzeros():
    # a transport with m nonzeros in a row puts m^2 in each row of its
    # End(E) block: dense rank-2 transports fit at r6 but not at r7, where
    # the monomial su2 preset fits
    from modulilab import cli

    cli._check_size("fan", 8, 2, 6, m=2)
    cli._check_size("fan", 8, 2, 7, m=1)
    with pytest.raises(cli.ConfigError, match="m = 2 has size \\(n\\^2 m\\^2 \\+ 1\\) F/2 = 1114112"):
        cli._check_size("fan", 8, 2, 7, m=2)


def test_rank_32_at_r0_is_refused_before_assembly(tmp_path):
    # trivial rank 32 on the unrefined fan fits both bounds, but the fan's
    # faces repeat a vertex, so the run exits 2 before anything is assembled
    import time

    from click.testing import CliRunner
    from modulilab import cli

    p = _write(tmp_path, {"mesh": {"genus": 2, "refinements": 0}, "bundle": {"preset": "trivial", "n": 32}})
    t0 = time.perf_counter()
    r = CliRunner().invoke(cli.main, ["positivity", "--config", p, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - t0 < 1.0
    assert r.exit_code == 2, r.output
    assert "repeated vertices" in r.output


def test_bare_memory_error_names_its_function(monkeypatch, tmp_path):
    # a MemoryError without a message (SuperLU running out of memory)
    # names the innermost function of the package it was raised under
    from click.testing import CliRunner
    from modulilab import cli
    from modulilab import _complexes

    def failing(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(_complexes.spla, "splu", failing)
    out = tmp_path / "out"
    r = CliRunner().invoke(cli.main, ["positivity", "--config", _write(tmp_path, CFG_SMALL), "--out", str(out)])
    assert r.exit_code == 1, r.output
    rep = _strict_json((out / "report.json").read_text())
    assert rep["failures"] == ["evaluated_seed0", "evaluated_seed1"]
    assert [c["message"] for c in rep["checks"]] == ["MemoryError in DolbeaultComplex.lu"] * 2


def test_superlu_system_error_is_a_failing_check(monkeypatch, tmp_path):
    # scipy's SuperLU wrapper raises SystemError ("gstrf was called with
    # invalid arguments") when it fails near the memory limit: it is named
    # a MemoryError of the LU and recorded per seed, with no traceback
    from click.testing import CliRunner
    from modulilab import cli
    from modulilab import _complexes

    def failing(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(_complexes.spla, "splu", failing)
    out = tmp_path / "out"
    r = CliRunner().invoke(cli.main, ["positivity", "--config", _write(tmp_path, CFG_SMALL), "--out", str(out)])
    assert r.exit_code == 1, r.output
    assert "Traceback" not in r.output and isinstance(r.exception, SystemExit)
    rep = _strict_json((out / "report.json").read_text())
    assert rep["failures"] == ["evaluated_seed0", "evaluated_seed1"]
    message = "MemoryError: sparse LU of the bordered Laplacian: gstrf was called with invalid arguments"
    assert [c["message"] for c in rep["checks"]] == [message] * 2


def test_failed_seed_leaves_the_others_running(monkeypatch, tmp_path):
    # a seed whose solve fails is left out of samples; the seeds after it
    # still run, with the samples of a run without it, and the command
    # exits 1
    from click.testing import CliRunner
    from modulilab import cli
    from modulilab._complexes import SolverError

    sample = cli._sample_reports

    def failing(cfg, scene, seed):
        if seed == 1:
            raise SolverError("solve relative residual nan exceeds 1e-08")
        return sample(cfg, scene, seed)

    monkeypatch.setattr(cli, "_sample_reports", failing)
    out = tmp_path / "out"
    p = _write(tmp_path, {"seeds": [0, 1, 2]})
    r = CliRunner().invoke(cli.main, ["second-variation", "--config", p, "--out", str(out)])
    assert r.exit_code == 1, r.output
    rep = json.loads((out / "report.json").read_text())
    assert rep["failures"] == ["evaluated_seed1"]
    assert [c["name"] for c in rep["checks"]] == [
        "difference_reconciles_seed0", "evaluated_seed1", "difference_reconciles_seed2"
    ]
    assert [s["seed"] for s in rep["samples"]] == [0, 2]
    clean = tmp_path / "clean"
    p = _write(tmp_path, {"seeds": [0, 2]})
    r = CliRunner().invoke(cli.main, ["second-variation", "--config", p, "--out", str(clean)])
    assert r.exit_code == 0, r.output
    assert json.loads((clean / "report.json").read_text())["samples"] == rep["samples"]


def test_valid_typed_fields_load(tmp_path):
    from modulilab.cli import load_config

    cfg = load_config(_write(tmp_path, {"bundle": {"preset": "trivial", "n": None}, "tangent": {"mu_scale": 0}}))
    assert cfg["bundle"]["n"] is None and cfg["tangent"]["mu_scale"] == 0


def test_build_scene_validates_each_mesh_once(monkeypatch, tmp_path):
    # su2 at r3 constructs four meshes (the fan and three refinements;
    # from_generators compares the fan's arrays without building a second
    # one); each is validated once, on construction, and by nothing else
    from modulilab import cli, surface

    built, validated = [], []
    init, validate = surface.HalfEdgeMesh.__init__, surface.validate_mesh

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_validate(mesh):
        validated.append(mesh)
        validate(mesh)

    monkeypatch.setattr(surface.HalfEdgeMesh, "__init__", counted_init)
    monkeypatch.setattr(surface, "validate_mesh", counted_validate)
    cli.build_scene(cli.load_config(_write(tmp_path, {"mesh": {**CFG_SMALL["mesh"], "refinements": 3}})))
    assert len(built) == 4
    assert [id(m) for m in validated] == [id(m) for m in built]


def test_cli_seed_solves_once_per_term(monkeypatch, tmp_path):
    # one CLI seed: one harmonic projection of the block of four sampled
    # tangents on each complex (2 solves) and one solve of the nine term
    # columns, on exactly two factorizations: one for End(E), one for the
    # tangent complex
    from modulilab import _complexes, cli
    from modulilab._complexes import DolbeaultComplex

    cfg = cli.load_config(_write(tmp_path, {"seeds": [3]}))
    scene = cli.build_scene(cfg)
    calls, factored = [], []
    solve, splu = DolbeaultComplex.delta0_solve, _complexes.spla.splu

    def counted(self, h):
        calls.append(self)
        return solve(self, h)

    def counted_splu(A, **kw):
        factored.append(A.shape[0])
        return splu(A, **kw)

    monkeypatch.setattr(DolbeaultComplex, "delta0_solve", counted)
    monkeypatch.setattr(_complexes.spla, "splu", counted_splu)
    quad = cli._sample_reports(cfg, scene, 3)
    endo, tangent = scene.endo, scene.tangent
    assert len(calls) == 3
    assert calls.count(tangent) == 1 and calls.count(endo) == 2
    assert sorted(factored) == sorted(cx.w0.shape[0] + cx.kernel.shape[1] for cx in (endo, tangent))
    stats = quad.solver_stats
    assert stats["factor_reused"]
    # the five universal columns first, then the four fibered-only ones
    assert stats["terms"] == [
        "gauge_12", "gauge_21", "opvar_proj", "opvar_mu3", "opvar_mu4",
        "new_tei_mu3", "new_tei_mu4", "new_opvar_mu3_bar", "new_opvar_mu4_bar",
    ]


@pytest.mark.parametrize(
    "bundle, rank",
    [({"preset": "su2", "n": 3}, 2), ({"preset": "su2", "n": 1}, 2), ({"preset": "trivial", "n": 2}, None)],
    ids=["su2-n3", "su2-n1", "trivial-n2"],
)
def test_bundle_n_must_match_cocycle_rank(tmp_path, bundle, rank):
    # bundle.n is the rank; a value the cocycle does not have is refused,
    # not ignored
    r = run_cli("positivity", "--config", _write(tmp_path, {"bundle": bundle}), "--out", str(tmp_path / "out"))
    if rank is None:
        assert r.returncode == 0, r.stdout + r.stderr
    else:
        assert r.returncode == 2, r.stdout + r.stderr
        assert "bundle.n" in r.stderr and f"rank {rank}" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "out" / "report.json").exists()


def test_bundle_n_checked_against_generator_file(tmp_path):
    from modulilab.bundle import save_cocycle, su2_preset
    from modulilab.surface import build_polygon_gluing

    gen = tmp_path / "su2.gen"
    save_cocycle(su2_preset(build_polygon_gluing(2)), gen)
    for n, code in ((2, 0), (4, 2)):
        p = _write(tmp_path, {"bundle": {"generator_file": str(gen), "n": n}})
        r = run_cli("positivity", "--config", p, "--out", str(tmp_path / f"out{n}"))
        assert r.returncode == code, r.stdout + r.stderr
    assert "bundle.n" in r.stderr


def test_removed_flags_are_refused(tmp_path):
    # density and the dense cap are config keys; tolerances are code
    for flag, value in (("--tol", "1e-3"), ("--density", "uniform"), ("--dense-cap", "10")):
        r = run_cli("check-operators", "--config", _write(tmp_path, {}), flag, value)
        assert r.returncode == 2 and "No such option" in r.stderr, r.stderr


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# every shipped config passes all of its own gates
SHIPPED = ["genus2_su2.json", "genus2_trivial.json"]


@pytest.mark.parametrize("config", SHIPPED)
@pytest.mark.parametrize(
    "cmd", ["check-operators", "second-variation", "positivity", "projector-derivative"]
)
def test_shipped_configs_smoke(tmp_path, config, cmd):
    out = tmp_path / "out"
    r = run_cli(cmd, "--config", str(CONFIGS / config), "--out", str(out))
    assert r.returncode == 0, r.stdout + r.stderr
    report = _strict_json((out / "report.json").read_text())
    assert report["failures"] == []
    if cmd == "check-operators":
        (kahler,) = [c for c in report["checks"] if c["name"] == "kahler_identity"]
        assert kahler["pass"] and kahler["value"] <= 1e-12


def test_run_freezes_before_it_dispatches(monkeypatch):
    from modulilab import cli

    counts = []
    monkeypatch.setattr(cli, "main", lambda: counts.append(gc.get_freeze_count()))
    try:
        cli.run()
    finally:
        gc.unfreeze()
    assert counts and counts[0] > 0


@pytest.mark.parametrize("cmd", ["positivity", "second-variation"])
def test_module_entry_matches_in_process_main(tmp_path, cfg_path, cmd):
    # the process entry (run, through python -m) and an in-process call of
    # main write the same bytes; main itself freezes nothing
    from click.testing import CliRunner

    from modulilab import cli

    r = run_cli(cmd, "--config", cfg_path, "--out", str(tmp_path / "module"))
    assert r.returncode == 0, r.stdout + r.stderr
    inproc = CliRunner().invoke(cli.main, [cmd, "--config", cfg_path, "--out", str(tmp_path / "main")])
    assert inproc.exit_code == 0, inproc.output
    assert gc.get_freeze_count() == 0
    assert inproc.stdout == r.stdout
    module, main = ({f.name: f.read_bytes() for f in (tmp_path / d).iterdir()} for d in ("module", "main"))
    assert "report.json" in module and module == main


TRACED_SPANS = {
    "second-variation": {
        "cli.cmd_second_variation",
        "cli._sample_reports",
        "variation.evaluate_quadruple",
        "_complexes.delta0_solve",
    },
    "positivity": {"cli.cmd_positivity", "variation.positivity_certificate"},
    "check-operators": {"cli.cmd_check_operators", "oracle.certify_operators"},
    "projector-derivative": {"cli.cmd_projector_derivative", "variation.projector_derivative_sweep"},
}


@pytest.mark.parametrize("cmd", sorted(TRACED_SPANS))
def test_benchmark_tracer_runs(tmp_path, cmd):
    # the benchmark tracer imports each layer module by name and wraps its
    # public functions; a missing module or a broken wrapper fails here
    root = Path(__file__).resolve().parents[1]
    cfg = _write(tmp_path, {"seeds": [0]})
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_cli.py"), str(spans), cmd,
         "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=root, env=env,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    traced = json.loads(spans.read_text())["spans"]
    assert TRACED_SPANS[cmd] <= {span[0] for span in traced}
