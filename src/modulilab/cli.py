"""Batch driver: config ingestion, experiment execution, report persistence.

Exit codes: 0 all asserted invariants pass, 1 numerical assertion
failure (machine-readable failure list in report.json), 2 config error.
Reports are deterministic for a fixed seed list: keys are sorted and no
timestamps are written.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import json
import math
import os
import sys

import click
import numpy as np

from . import bundle as bnd
from . import oracle, variation
from .bundle import trivial_cocycle, su2_preset, load_cocycle
from .surface import (
    build_polygon_gluing,
    equip_conformal,
    load_mesh,
    refine,
)
from .tangent import random_tangent


class ConfigError(Exception):
    pass


DEFAULTS = {
    "mesh": {"genus": 2, "refinements": 2, "layout": "stored", "density": "uniform", "file": None},
    "bundle": {"preset": "su2", "n": None, "d": None, "generator_file": None},
    "seeds": [0, 1, 2, 3],
    "tolerances": {
        "projector": 1e-8,
        "adjointness": 1e-10,
        "oracle": 1e-8,
        "first_variation": 1e-12,
        "hermitian": 1e-8,
        "difference": 1e-10,
        "fd_error": 1e-6,
        "slope": 0.2,
    },
    "dense_cap": 6000,
    "adjoint_trials": 200,
    "oracle_rhs": 20,
    "tangent": {"mu_scale": 1.0, "nu_scale": 1.0},
    "fd_steps": [1e-3, 1e-4, 1e-5],
}

FD_GATE_STEP = 1e-4  # the step whose finite-difference error is gated


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path, **cli_overrides) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        cfg = _merge(cfg, user)
    for key, val in cli_overrides.items():
        if val is None:
            continue
        if key == "seed":
            cfg["seeds"] = [int(val)]
        elif key == "density":
            cfg = _merge(cfg, {"mesh": {"density": val}})
        elif key == "dense_cap":
            cfg["dense_cap"] = int(val)
        elif key == "tol":
            cfg = _merge(cfg, {"tolerances": {"projector": float(val), "oracle": float(val)}})
        elif key == "out":
            cfg["out"] = val
    cfg.setdefault("out", "out")
    for key in ("mesh", "bundle", "tolerances", "tangent"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be a JSON object, got {cfg[key]!r}")
    for name, t in cfg["tolerances"].items():
        if not (_number(t) and t > 0):
            raise ConfigError(f"tolerances.{name} must be a positive finite number, got {t!r}")
    for key in ("mu_scale", "nu_scale"):
        if not _number(cfg["tangent"].get(key)):
            raise ConfigError(f"tangent.{key} must be a finite number, got {cfg['tangent'].get(key)!r}")
    n = cfg["bundle"].get("n")
    if n is not None and _integer(n, "bundle.n") < 1:
        raise ConfigError(f"bundle.n must be a positive integer or null, got {n!r}")
    mesh_cfg = cfg["mesh"]
    if mesh_cfg.get("file") is None and _integer(mesh_cfg.get("genus"), "mesh.genus") < 2:
        raise ConfigError("genus must be >= 2 (torus geometry only via the cross-check)")
    if _integer(mesh_cfg.get("refinements"), "mesh.refinements") < 0:
        raise ConfigError("mesh.refinements must be >= 0")
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list of integers")
    for s in seeds:
        _integer(s, "seeds")
    for key in ("dense_cap", "adjoint_trials", "oracle_rhs"):
        if _integer(cfg[key], key) < 1:
            raise ConfigError(f"{key} must be a positive integer, got {cfg[key]!r}")
    steps = cfg["fd_steps"]
    if not isinstance(steps, list) or not all(_number(h) and h > 0 for h in steps) or len(set(steps)) < 2:
        raise ConfigError("fd_steps must list at least two distinct positive step sizes")
    if _fd_gate_step(steps) is None:
        raise ConfigError(f"fd_steps must include the gated step {FD_GATE_STEP:g}")
    for f in (mesh_cfg.get("file"), cfg["bundle"].get("generator_file")):
        if f is not None and not os.path.exists(f):
            raise ConfigError(f"referenced file does not exist: {f}")
    return cfg


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _fd_gate_step(steps):
    """The configured step equal to FD_GATE_STEP (to rounding), or None."""
    return next((float(h) for h in steps if math.isclose(h, FD_GATE_STEP, rel_tol=1e-9)), None)


def build_scene(cfg: dict):
    """Mesh + conformal surface + cocycle from a config."""
    mcfg = cfg["mesh"]
    if mcfg.get("file"):
        mesh = load_mesh(mcfg["file"])
    else:
        mesh = build_polygon_gluing(int(mcfg["genus"]))
    cocycle_mesh = mesh
    bcfg = cfg["bundle"]
    if bcfg.get("generator_file"):
        c0 = load_cocycle(cocycle_mesh, bcfg["generator_file"])
    elif bcfg.get("preset") == "su2":
        c0 = su2_preset(cocycle_mesh)
    elif bcfg.get("preset") == "trivial":
        c0 = trivial_cocycle(cocycle_mesh, bcfg.get("n") or 1)
    else:
        raise ConfigError(f"unknown bundle preset {bcfg.get('preset')!r}")
    for _ in range(int(mcfg.get("refinements", 0))):
        child = refine(mesh)
        c0 = bnd.refine_cocycle(c0, child)
        mesh = child
    S = equip_conformal(mesh, layout=mcfg.get("layout", "stored"), density=mcfg.get("density", "uniform"))
    return S, c0


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(out_dir: str, name: str, checks: list[dict], extra: dict | None = None) -> int:
    failures = [c for c in checks if not c["pass"]]
    payload = {
        "command": name,
        "checks": checks,
        "failures": [c["name"] for c in failures],
        "passed": not failures,
    }
    if extra:
        payload.update(extra)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), payload)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        click.echo(f"[{status}] {c['name']}: {c['value']:.3e} (tol {c['tol']:.1e})")
    return 0 if not failures else 1


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol), "pass": bool(value <= tol)}


# ---------------------------------------------------------------------------


@click.group()
def main():
    """Moduli-metric verification lab."""


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None)(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--out", type=click.Path(), default=None)(fn)
    fn = click.option("--dense-cap", type=int, default=None)(fn)
    fn = click.option("--tol", type=float, default=None)(fn)
    fn = click.option(
        "--density", type=click.Choice(["uniform", "hyperbolic"]), default=None
    )(fn)
    return fn


@contextlib.contextmanager
def _config_errors(*errors):
    """Exit 2 with the message of any of ``errors`` raised inside."""
    try:
        yield
    except errors as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)


def _load(config_path, **kw) -> dict:
    with _config_errors(ConfigError):
        return load_config(config_path, **kw)


def _scene(cfg: dict):
    from .bundle import CocycleError, RelationError
    from .surface import ChartError, MeshError

    with _config_errors(MeshError, ChartError, CocycleError, RelationError, ConfigError):
        return build_scene(cfg)


@main.command("check-operators")
@_common_options
def cmd_check_operators(config_path, seed, out, dense_cap, tol, density):
    """Operator invariant suite: adjointness, projector algebra, kernel
    dimensions, oracle equivalence."""
    cfg = _load(config_path, seed=seed, out=out, dense_cap=dense_cap, tol=tol, density=density)
    S, c = _scene(cfg)
    tols = cfg["tolerances"]
    cap = cfg["dense_cap"]
    cx = bnd.operators(S, c)
    rng = np.random.default_rng(cfg["seeds"][0])
    n = c.rank
    checks = []

    # adjointness residuals over random trials
    worst = 0.0
    for _ in range(cfg["adjoint_trials"]):
        f = rng.standard_normal((S.n_vertices, n, n)) + 1j * rng.standard_normal((S.n_vertices, n, n))
        a = rng.standard_normal((S.n_faces, n, n)) + 1j * rng.standard_normal((S.n_faces, n, n))
        fb = bnd.BundleCochain(f, "vertex")
        ab = bnd.BundleCochain(a, (0, 1))
        lhs = bnd.ip_bundle(bnd.twisted_dbar(fb, c, S), ab, c, S)
        rhs = bnd.ip_bundle(fb, bnd.twisted_dbar_star(ab, c, S), c, S)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(_check("adjointness_residual", worst, tols["adjointness"]))

    def dense(op_name):
        with _config_errors(oracle.DenseCapError):
            return oracle.materialize(op_name, c, S, dense_cap=cap)

    # dense projector algebra
    P = dense("projection")
    M = P.matrix
    s1 = np.sqrt(P.codomain_weight)
    Ms = (M * (1.0 / s1)[None, :]) * s1[:, None]
    checks.append(_check("projector_idempotent", oracle.spectral_norm(Ms @ Ms - Ms), tols["projector"]))
    checks.append(_check("projector_self_adjoint", oracle.spectral_norm(Ms - Ms.conj().T), tols["projector"]))
    D = dense("dbar").matrix
    Ds = (D * np.sqrt(P.codomain_weight)[:, None]) / np.sqrt(cx.w0)[None, :]
    checks.append(
        _check(
            "projector_annihilates_dbar",
            oracle.spectral_norm(Ms @ Ds) / max(oracle.spectral_norm(Ds), 1e-300),
            tols["projector"],
        )
    )

    # recorded diagnostics (not assertions): the discrete harmonic spaces
    # of this P1/P0 complex are larger than the smooth dimensions
    g = S.mesh.genus
    harmonic_nu_dim = int(round(float(np.trace(Ms).real)))
    diagnostics = {
        "harmonic_nu_dim": harmonic_nu_dim,
        "smooth_endo_dim": n * n * (g - 1) + 1,
        "smooth_beltrami_dim": 3 * g - 3,
        "faces": S.n_faces,
        "vertices": S.n_vertices,
    }

    # kernel dimension, counted spectrally on the dense Laplacian, vs commutant
    lap = dense("laplacian")
    _, cdim = bnd.is_irreducible(c)
    kdim = oracle.kernel_dimension_dense(lap)
    checks.append(_check("kernel_equals_commutant", float(abs(kdim - cdim)), 0.5))

    # oracle equivalence of the factorized restricted inverse
    inv = oracle.restricted_inverse_dense(lap)
    worst = 0.0
    for _ in range(cfg["oracle_rhs"]):
        h = rng.standard_normal((S.n_vertices, n, n)) + 1j * rng.standard_normal((S.n_vertices, n, n))
        hb = bnd.BundleCochain(h, "vertex")
        x_fac = bnd.delta0_inverse(hb, c, S).values.reshape(-1)
        x_dn = inv.matrix @ h.reshape(-1)
        worst = max(worst, np.linalg.norm(x_fac - x_dn) / max(np.linalg.norm(x_dn), 1e-300))
    checks.append(_check("delta0_factorized_vs_dense", worst, tols["oracle"]))

    sys.exit(
        _finish(
            cfg["out"],
            "check-operators",
            checks,
            {"kernel_dim": kdim, "commutant_dim": cdim, "diagnostics": diagnostics},
        )
    )


def _sample_reports(cfg, S, c, seed):
    tcfg = cfg["tangent"]
    vs = [
        random_tangent(S, c, seed=seed * 10 + i, mu_scale=tcfg["mu_scale"], nu_scale=tcfg["nu_scale"])
        for i in range(4)
    ]
    return (seed, *variation.evaluate_quadruple(*vs, S, c))


@main.command("second-variation")
@_common_options
def cmd_second_variation(config_path, seed, out, dense_cap, tol, density):
    """Sample harmonic tangent quadruples; emit both coordinate-system
    reports and the difference report per sample."""
    cfg = _load(config_path, seed=seed, out=out, dense_cap=dense_cap, tol=tol, density=density)
    S, c = _scene(cfg)
    tols = cfg["tolerances"]
    results = [_sample_reports(cfg, S, c, int(s)) for s in cfg["seeds"]]
    checks = []
    samples = []
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], "terms.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["seed", "system", "term", "re", "im"])
        for s, uni, fib, diff in results:
            for rep in (uni, fib, diff):
                for name, val in rep.terms:
                    wr.writerow([s, rep.coordinate_system, name, repr(val.real), repr(val.imag)])
            recon = abs(diff.total - (uni.total - fib.total))
            scale = max(abs(uni.total), abs(fib.total), 1.0)
            checks.append(_check(f"difference_reconciles_seed{s}", recon / scale, tols["difference"]))
            samples.append(
                {
                    "seed": s,
                    "universal": uni.to_json_dict(),
                    "fibered": fib.to_json_dict(),
                    "difference": diff.to_json_dict(),
                }
            )
    sys.exit(_finish(cfg["out"], "second-variation", checks, {"samples": samples}))


@main.command("positivity")
@_common_options
def cmd_positivity(config_path, seed, out, dense_cap, tol, density):
    """Positivity certificate over seeded samples, with CSV and plot data."""
    cfg = _load(config_path, seed=seed, out=out, dense_cap=dense_cap, tol=tol, density=density)
    S, c = _scene(cfg)
    seeds = [int(s) for s in cfg["seeds"]]
    rows = []
    for s in seeds:
        v = random_tangent(S, c, seed=s)
        a, b, total = variation.positivity_certificate(v.mu, bnd.BundleCochain(v.nu.values, (0, 1)), S, c)
        mu_norm = float(np.sqrt(np.sum(S.density * S.area * np.abs(v.mu.values) ** 2)))
        nu_norm = float(np.sqrt(abs(np.sum(2.0 * S.area * np.einsum("fab,fab->f", v.nu.values, np.conj(v.nu.values))))))
        rows.append((s, a, b, total, mu_norm * nu_norm))
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], "positivity.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["seed", "term_a", "term_b", "total"])
        for s, a, b, total, _ in rows:
            wr.writerow([s, repr(a), repr(b), repr(total)])
    with open(os.path.join(cfg["out"], "plotdata.tsv"), "w") as fh:
        fh.write("norm_product\ttotal\n")
        for s, a, b, total, np_ in rows:
            fh.write(f"{np_!r}\t{total!r}\n")
    checks = []
    for s, a, b, total, _ in rows:
        checks.append(_check(f"term_a_nonneg_seed{s}", max(0.0, -a), 1e-12 * max(abs(total), 1.0)))
        checks.append(_check(f"total_positive_seed{s}", 0.0 if total > 0 else 1.0, 0.5))
    sys.exit(_finish(cfg["out"], "positivity", checks, {"rows": [list(map(float, r[:4])) for r in rows]}))


@main.command("projector-derivative")
@_common_options
def cmd_projector_derivative(config_path, seed, out, dense_cap, tol, density):
    """Finite-difference projector-derivative identity over step sizes."""
    cfg = _load(config_path, seed=seed, out=out, dense_cap=dense_cap, tol=tol, density=density)
    S, c = _scene(cfg)
    tols = cfg["tolerances"]
    steps = [float(h) for h in cfg["fd_steps"]]
    with _config_errors(oracle.DenseCapError):
        sweep = variation.projector_derivative_sweep(
            S, c, steps=steps, seed=cfg["seeds"][0], dense_cap=cfg["dense_cap"]
        )
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], "fd_errors.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["step", "rel_error"])
        for h in sorted(sweep["errors"], reverse=True):
            wr.writerow([repr(h), repr(sweep["errors"][h])])
    checks = [
        _check("fd_error_at_1e-4", sweep["errors"][_fd_gate_step(steps)], tols["fd_error"]),
        _check("loglog_slope_near_2", abs(sweep["slope"] - 2.0), tols["slope"]),
    ]
    sys.exit(_finish(cfg["out"], "projector-derivative", checks, {"slope": sweep["slope"]}))


if __name__ == "__main__":
    main()
