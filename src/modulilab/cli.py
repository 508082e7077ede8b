"""Batch driver: config ingestion, experiment execution, report persistence.

Each command writes one file, report.json, holding every number it
computed; ``_command`` writes it.  Exit codes: 0 all asserted invariants
pass, 1 numerical assertion failure (machine-readable failure list in
report.json), 2 config or input error (any ``surface.InputError``),
mapped in one place: ``_command``.  Reports are deterministic for a fixed
seed list: keys are sorted and no timestamps are written.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import gc
import json
import math
import os
import sys

import click
import numpy as np

from . import bundle as bnd
from . import conventions, oracle, variation
from ._complexes import SolverError, kahler_residual
from .bundle import Scene, trivial_cocycle, su2_preset, load_cocycle
from .surface import InputError, build_polygon_gluing, equip_conformal, load_mesh
from .tangent import random_tangent


class ConfigError(InputError):
    pass


DEFAULTS = {
    "mesh": {"genus": 2, "refinements": 2, "layout": "stored", "density": "uniform", "file": None},
    "bundle": {"preset": "su2", "n": None, "generator_file": None},
    "seeds": [0, 1, 2, 3],
    "dense_cap": oracle.DENSE_CAP,
    "tangent": {"mu_scale": 1.0, "nu_scale": 1.0},
    "out": "out",
}

# The gate of every check, by check name (a per-seed check drops its
# _seed<s> suffix).  Changing a gate is a code change, noted in CHANGES.md.
TOLERANCES = {
    "adjointness_residual": 1e-10,
    "kahler_identity": 1e-12,  # roundoff on a flat bundle; lets every solve use dbar* dbar alone
    **dict.fromkeys(("projector_idempotent", "projector_self_adjoint", "projector_annihilates_dbar"), 1e-8),
    "kernel_equals_commutant": 0.5,  # |kernel dim - commutant dim|, an integer
    "delta0_factorized_vs_dense": 1e-8,
    "difference_reconciles": 1e-10,
    "term_a_nonneg": 1e-12,  # times max(|total|, 1)
    "total_positive": 0.5,  # value 0 when the total is positive, else 1
    "evaluated": 0.5,  # value 1: a solve, input check or finiteness check failed
    "fd_error_geometric_at_1e-4": 1e-6,  # the error at variation.FD_STEPS[-1]
    "loglog_slope_geometric_near_2": 0.2,
}
# The largest size (n^2 m^2 + 1) F/2 of a refined mesh (see _check_size):
# its value for su2 at genus 2 and refinement 7.
MAX_UNKNOWNS = 327_680
# The largest rank n, the largest measured.  CHANGES.md has the runs at both bounds.
MAX_RANK = 32


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` laid over ``base``; a key that ``base`` lacks is an
    unknown config key, named by its dotted path."""
    out = dict(base)
    for k, v in override.items():
        if k not in base:
            raise ConfigError(f"unknown config key {prefix}{k}")
        if isinstance(v, dict) and isinstance(out[k], dict):
            out[k] = _merge(out[k], v, f"{prefix}{k}.")
        else:
            out[k] = v
    return out


def _json_object(pairs: list) -> dict:
    """A JSON object of the config; a key given twice is refused, not
    resolved to its last value."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ConfigError(f"repeated config key {k}")
        out[k] = v
    return out


def load_config(path, seed=None, out=None) -> dict:
    """The config at ``path`` laid over DEFAULTS; ``seed`` and ``out``
    (the --seed and --out flags) override ``seeds`` and ``out``."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh, object_pairs_hook=_json_object)
        except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        cfg = _merge(cfg, user)
    if seed is not None:
        cfg["seeds"] = [seed]
    if out is not None:
        cfg["out"] = out
    if not isinstance(cfg["out"], str) or not cfg["out"] or "\0" in cfg["out"]:
        raise ConfigError(f"out must be a non-empty directory path without a NUL byte, got {cfg['out']!r}")
    for key in ("mesh", "bundle", "tangent"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be a JSON object, got {cfg[key]!r}")
    for key in ("mu_scale", "nu_scale"):
        if not _number(cfg["tangent"].get(key)):
            raise ConfigError(f"tangent.{key} must be a finite number, got {cfg['tangent'].get(key)!r}")
    n = cfg["bundle"].get("n")
    if n is not None and _integer(n, "bundle.n") < 1:
        raise ConfigError(f"bundle.n must be a positive integer or null, got {n!r}")
    mesh_cfg = cfg["mesh"]
    for key, f in (("mesh.file", mesh_cfg["file"]), ("bundle.generator_file", cfg["bundle"]["generator_file"])):
        if f is not None and not (isinstance(f, str) and os.path.isfile(f)):  # isfile(0) stats stdin
            raise ConfigError(f"{key} must be null or a path; referenced file does not exist or is not a file: {f!r}")
    # checked even where a file decides the value
    if _integer(mesh_cfg.get("genus"), "mesh.genus") < 2:
        raise ConfigError("mesh.genus must be >= 2 (torus geometry only via the cross-check)")
    if cfg["bundle"].get("preset") not in ("su2", "trivial"):
        raise ConfigError(f"bundle.preset must be 'su2' or 'trivial', got {cfg['bundle'].get('preset')!r}")
    if _integer(mesh_cfg.get("refinements"), "mesh.refinements") < 0:
        raise ConfigError("mesh.refinements must be >= 0")
    if mesh_cfg.get("file") is None:
        # a first bound, before anything is allocated; build_scene bounds the built pair
        b = cfg["bundle"]
        n = b.get("n") or (2 if b.get("preset") == "su2" and b.get("generator_file") is None else 1)
        _check_size(f"mesh.genus {mesh_cfg['genus']}", 4 * mesh_cfg["genus"], n, mesh_cfg["refinements"])
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list of integers")
    for s in seeds:
        if _integer(s, "seeds") < 0:
            raise ConfigError(f"seeds must be non-negative integers, got {s!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must not repeat a seed, got {seeds!r}")
    if _integer(cfg["dense_cap"], "dense_cap") < 1:
        raise ConfigError(f"dense_cap must be a positive integer, got {cfg['dense_cap']!r}")
    return cfg


def _check_size(base: str, faces: int, n: int, refinements: int, m: int = 1) -> None:
    """Raise ConfigError when the rank n is above MAX_RANK (it bounds the
    commutant's n^2 x n^2 Gram matrix, the one n^4 object of a run), or
    when a base mesh of ``faces`` faces, refined r times to F = faces 4^r
    faces, has a size (n^2 m^2 + 1) F/2 above MAX_UNKNOWNS.  m is the most
    nonzeros in a row of any transport T: 1 for the presets, whose
    transports are monomial, up to n for a generator file.  By Euler's
    formula, V = 2 - 2g + F/2, so the size bounds n^2 m^2 V + V: the
    End(E) unknowns, each with the m^2 nonzeros per neighbour that a block
    X -> T X T^H puts in its row, and the tangent unknowns, the two
    complexes that a run factors.  Unlike V (2 at r = 0 on the fan) it
    grows with the genus.  ``base`` names the base in the message.  Past
    32 refinements the size is named as a lower bound, taken at 32."""
    if n > MAX_RANK:
        raise ConfigError(f"{base} has rank {n}, above the bound MAX_RANK = {MAX_RANK}")
    r = min(refinements, 32)
    size = (n * n * m * m + 1) * faces * 4**r // 2
    if size > MAX_UNKNOWNS:
        raise ConfigError(
            f"{base} at {refinements} refinements with rank {n} and m = {m} has size (n^2 m^2 + 1) F/2 = "
            f"{'at least ' if r < refinements else ''}{size}, above the bound {MAX_UNKNOWNS} (F = {faces} * 4^r faces)"
        )


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def build_scene(cfg: dict) -> Scene:
    """The scene of a config: mesh, conformal surface and cocycle."""
    mcfg, bcfg = cfg["mesh"], cfg["bundle"]
    mesh = load_mesh(mcfg["file"]) if mcfg["file"] is not None else build_polygon_gluing(mcfg["genus"])
    if mesh.genus < 2:
        raise ConfigError(f"mesh.file {mcfg['file']!r} has genus {mesh.genus}; genus must be >= 2")
    if bcfg["generator_file"] is not None:
        c0 = load_cocycle(mesh, bcfg["generator_file"])
    elif bcfg["preset"] == "su2":
        c0 = su2_preset(mesh)
    else:
        c0 = trivial_cocycle(mesh, bcfg["n"] or 1)
    if bcfg["n"] is not None and bcfg["n"] != c0.rank:
        raise ConfigError(f"bundle.n is {bcfg['n']}, but the configured cocycle has rank {c0.rank}")
    m = int(np.count_nonzero(c0.transport, axis=2).max())  # refinement keeps each row's nonzeros
    _check_size("the base pair", mesh.n_faces, c0.rank, mcfg["refinements"], m)
    for _ in range(mcfg["refinements"]):
        c0 = bnd.refine_cocycle(c0)
    S = equip_conformal(c0.mesh, layout=mcfg["layout"], density=mcfg["density"])
    return Scene(S, c0)


def _finish(out_dir: str, name: str, checks: list[dict], fields: dict) -> int:
    """Write the report.json of command ``name``: its checks, their
    failures and its report ``fields``; echo each check; return the exit
    code, 0 if every check passes, else 1."""
    failures = [c for c in checks if not c["pass"]]
    report = {"command": name, "checks": checks, "failures": [c["name"] for c in failures], "passed": not failures}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump({**report, **fields}, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        message = f": {c['message']}" if "message" in c else ""
        click.echo(f"[{status}] {c['name']}: {c['value']:.3e} (tol {c['tol']:.1e}){message}")
    return 0 if not failures else 1


def _check(gate: str, value: float, seed: int | None = None, scale: float = 1.0) -> dict:
    """``value`` against ``scale`` times ``TOLERANCES[gate]``, named ``gate`` or ``<gate>_seed<seed>``."""
    name = gate if seed is None else f"{gate}_seed{seed}"
    tol = TOLERANCES[gate] * scale
    return {"name": name, "value": float(value), "tol": float(tol), "pass": bool(value <= tol)}


@contextlib.contextmanager
def _evaluation_failures(checks: list[dict], seed: int | None = None):
    """Record a SolverError, VariationInputError, FloatingPointError or
    MemoryError raised inside as the failing check ``evaluated[_seed<seed>]``,
    carrying the message.  Numpy's overflow, invalid and divide warnings are
    silenced inside: a non-finite value is a failure of ``_require_finite``,
    which names it, not a warning."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except (SolverError, variation.VariationInputError, FloatingPointError, MemoryError) as e:
        checks.append({**_check("evaluated", 1.0, seed=seed), "message": _failure_message(e)})


def _failure_message(e: BaseException) -> str:
    """``<class>: <message>``, or, for an exception without a message (a
    bare MemoryError from an allocator), ``<class> in <function>``: the
    innermost function of this package in its traceback, as
    ``<class>.<method>`` for a method."""
    if str(e):
        return f"{type(e).__name__}: {e}"
    package, where, tb = os.path.dirname(os.path.abspath(__file__)), "?", e.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        if os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == package:
            owner = frame.f_locals.get("self")
            where = frame.f_code.co_name if owner is None else f"{type(owner).__name__}.{frame.f_code.co_name}"
        tb = tb.tb_next
    return f"{type(e).__name__} in {where}"


def _require_finite(named) -> None:
    """Raise FloatingPointError naming the first ``(name, value)`` pair
    whose value is not finite: a nan or an overflow is not a result."""
    for name, value in named:
        if not np.isfinite(value):
            raise FloatingPointError(f"{name} = {value!r} is not finite")


# ---------------------------------------------------------------------------


@click.group()
def main():
    """Moduli-metric verification lab."""


def _command(name: str):
    """Register ``fn(cfg, scene) -> (checks, fields)`` as the command
    ``name`` of ``main`` with --config, --seed and --out: load the config,
    create the out directory, build the scene, run ``fn`` and write its
    checks and report fields to report.json, exit 0 if every check passes,
    else 1.  Any InputError exits 2 with its message; an evaluation
    failure that the scene build or ``fn`` lets through is the one failing
    check ``evaluated`` of the report, exit 1."""

    def register(fn):
        @main.command(name)
        @click.option("--config", "config_path", type=click.Path(), default=None)
        @click.option("--seed", type=int, default=None)
        @click.option("--out", type=click.Path(), default=None)
        @functools.wraps(fn)
        def command(config_path, seed, out):
            try:
                cfg = load_config(config_path, seed=seed, out=out)
                try:
                    os.makedirs(cfg["out"], exist_ok=True)
                except OSError as e:
                    raise ConfigError(f"cannot create the out directory {cfg['out']!r}: {e}") from None
                checks, fields = [], {}
                with _evaluation_failures(checks):  # a failure leaves checks bound to this list
                    checks, fields = fn(cfg, build_scene(cfg))
                code = _finish(cfg["out"], name, checks, fields)
            except InputError as e:
                click.echo(f"config error: {e}", err=True)
                code = 2
            sys.exit(code)

        return command

    return register


@_command("check-operators")
def cmd_check_operators(cfg, scene):
    """Operator invariant suite: adjointness, the Kaehler identity,
    projector algebra, kernel dimensions, oracle equivalence."""
    S, c = scene.surface, scene.cocycle
    dense = oracle.certify_operators(scene, dense_cap=cfg["dense_cap"])
    kdim, cdim = dense["kernel_dim"], scene.endo.kernel.shape[1]
    checks = [
        _check("adjointness_residual", dense["adjointness_residual"]),
        _check("kahler_identity", kahler_residual(scene.endo)),
    ]
    for name in ("projector_idempotent", "projector_self_adjoint", "projector_annihilates_dbar"):
        checks.append(_check(name, dense[name]))
    checks.append(_check("kernel_equals_commutant", float(abs(kdim - cdim))))
    checks.append(_check("delta0_factorized_vs_dense", dense["delta0_factorized_vs_dense"]))

    # recorded diagnostics (not assertions): the discrete harmonic spaces
    # of this P1/P0 complex are larger than the smooth dimensions
    g, n = S.mesh.genus, c.rank
    diagnostics = {
        "harmonic_nu_dim": dense["harmonic_nu_dim"],
        "smooth_endo_dim": n * n * (g - 1) + 1,
        "smooth_beltrami_dim": 3 * g - 3,
        "faces": S.n_faces,
        "vertices": S.n_vertices,
    }
    return checks, {"kernel_dim": kdim, "commutant_dim": cdim, "diagnostics": diagnostics}


def _sample_reports(cfg, scene, seed):
    """The quadruple report of a seed: tangents seeded 10 seed + i, at the
    configured scales (the keys of ``cfg["tangent"]``)."""
    mu, nu = random_tangent(scene, [seed * 10 + i for i in range(4)], **cfg["tangent"])
    return variation.evaluate_quadruple(*((mu[:, i], nu[..., i]) for i in range(4)), scene)


@_command("second-variation")
def cmd_second_variation(cfg, scene):
    """Sample harmonic tangent quadruples; emit both coordinate systems
    and their difference per sample."""
    checks, samples = [], []
    for s in cfg["seeds"]:
        with _evaluation_failures(checks, s):
            quad = _sample_reports(cfg, scene, s)
            _require_finite(
                (f"{rep.coordinate_system} {name}", val)
                for rep in quad.systems
                for name, val in (*rep.terms, ("total", rep.total))
            )
            uni, fib, diff = quad.systems
            recon = abs(diff.total - (uni.total - fib.total))
            scale = max(abs(uni.total), abs(fib.total), 1.0)
            checks.append(_check("difference_reconciles", recon / scale, seed=s))
            samples.append({"seed": s, **quad.to_json_dict()})
    return checks, {"conventions_digest": conventions.digest(scene.surface.density_policy), "samples": samples}


@_command("positivity")
def cmd_positivity(cfg, scene):
    """Positivity certificate over seeded samples: per seed, the terms and
    total in ``rows`` and the product of the Beltrami and form norms in
    ``norm_products``."""
    checks, rows, norm_products = [], [], []
    for s in cfg["seeds"]:
        with _evaluation_failures(checks, s):
            mu, nu = (x[..., 0] for x in random_tangent(scene, [s], **cfg["tangent"]))
            a, b, total = variation.positivity_certificate(mu, nu, scene)
            norm_product = math.sqrt(scene.tangent.inner(mu, mu).real) * math.sqrt(scene.endo.inner(nu, nu).real)
            _require_finite((("term_a", a), ("term_b", b), ("total", total), ("norm_product", norm_product)))
            checks.append(_check("term_a_nonneg", max(0.0, -a), seed=s, scale=max(abs(total), 1.0)))
            checks.append(_check("total_positive", 0.0 if total > 0 else 1.0, seed=s))
            rows.append([float(s), float(a), float(b), float(total)])
            norm_products.append([float(s), float(norm_product)])
    return checks, {"rows": rows, "norm_products": norm_products}


@_command("projector-derivative")
def cmd_projector_derivative(cfg, scene):
    """Finite-difference projector-derivative identity along the
    deformation of the center, over step sizes: ``errors`` holds each
    ``[step, relative error]``, largest step first."""
    sweep = variation.projector_derivative_sweep(scene, seed=cfg["seeds"][0])
    errors = [[h, float(sweep["errors"][h])] for h in sorted(sweep["errors"], reverse=True)]
    _require_finite((("slope", sweep["slope"]), *((f"error at step {h!r}", e) for h, e in errors)))
    checks = [
        _check("fd_error_geometric_at_1e-4", sweep["errors"][variation.FD_STEPS[-1]]),
        _check("loglog_slope_geometric_near_2", abs(sweep["slope"] - 2.0)),
    ]
    return checks, {"errors": errors, "slope": sweep["slope"]}


def run():
    """The process entry point: ``main`` after ``gc.freeze()``, so the
    interpreter's final collections skip the objects the imports left.
    Frozen objects are never collected, so in-process callers use ``main``."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
