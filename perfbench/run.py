"""End-to-end and per-layer benchmark of the modulilab CLI.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each CLI invocation runs in its own child process, one at a time: a
closed loop with one client.  A run first times PROBES set-up probes
(one-seed ``positivity``), then runs the workload's command sequence
MIN_SEQUENCES times, and repeats it while the next repetition still fits
in ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
probe and the sequence once untraced and once under ``trace_cli.py``,
and prints the per-layer metrics and the tracing overhead.  Every run
checks the outputs against the committed references, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from accounting import Op, child_ops, close, count_ops, median, self_times, summarize  # noqa: E402
from children import CHILD_ENV, ROOT, SRC, WORK, now, program_present, run_cli  # noqa: E402
from workloads import PROBE_COMMAND, WORKLOADS, expected_checks, seed_list  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference"
PROBES = 3
# two, so that every command's report.json is compared byte for byte with
# a repetition on the same seeds
MIN_SEQUENCES = 2
RTOL = 1e-10
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# a traced child's spans must cover its wall time up to this much: writing
# the spans and the interpreter's exit come after the process span closes
SPAN_GAP_TOL_S = 0.5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "1",
}

# Per-layer metrics: (name, unit, compared, what it should move).  The
# compared ones are in BENCHMARK.json: each is nonzero on all three
# workloads.  The others read 0 on some workload, where their layer does
# not run; they are printed and written to the result file.
LAYER_METRICS = [
    ("cli.import_s", "s", True, "setup_s, largest share on su2-r2-certify"),
    ("cli.build_scene_s", "s", True, "setup_s on trivial-r4-variation"),
    ("surface.refine_s", "s", True, "setup_s on trivial-r4-variation"),
    ("surface.equip_conformal_s", "s", True, "setup_s on trivial-r4-variation"),
    ("bundle.refine_cocycle_s", "s", True, "setup_s on trivial-r4-variation"),
    ("cli.report_write_s", "s", True, "wall_s on su2-r3-variation"),
    ("cli.report_bytes", "bytes", True, "wall_s on su2-r3-variation"),
    ("bundle.operators_s", "s", True, "setup_s and peak_rss_mb on both variation workloads"),
    ("bundle.operators_rss_mb", "MB", True, "setup_s and peak_rss_mb on both variation workloads"),
    ("bundle.ad_matrix_s", "s", False, "wall_s on trivial-r4-variation, then su2-r3-variation"),
    ("bundle.ad_matrix_calls", "count", False, "wall_s on trivial-r4-variation, then su2-r3-variation"),
    ("bundle.is_irreducible_s", "s", False, "wall_s on su2-r2-certify"),
    ("bundle.twisted_ops_s", "s", False, "wall_s on su2-r2-certify"),
    ("bundle.delta0_inverse_s", "s", False, "wall_s on su2-r2-certify"),
    ("complexes.geometry_s", "s", True, "setup_s on trivial-r4-variation"),
    ("complexes.assembly_s", "s", True, "setup_s on trivial-r4-variation"),
    ("complexes.solve_calls", "count", True, "wall_s on both variation workloads"),
    ("complexes.solves_per_seed", "count", False, "wall_s on both variation workloads"),
    ("complexes.solve_distinct_ratio", "1", True, "wall_s on both variation workloads"),
    ("complexes.solve_p50_s", "s", True, "wall_s on both variation workloads"),
    ("complexes.solve_first_s", "s", True, "setup_s on su2-r3-variation"),
    ("complexes.solve_residual_max", "1", True, "guard: must not rise"),
    ("complexes.lift_to_vertices_s", "s", False, "wall_s on trivial-r4-variation"),
    ("complexes.vertex_to_face_s", "s", False, "wall_s on trivial-r4-variation"),
    ("calculus.lift_face_field_s", "s", False, "wall_s on trivial-r4-variation"),
    ("calculus.beltrami_d_hol_s", "s", False, "wall_s on trivial-r4-variation"),
    ("tangent.random_tangent_s", "s", True, "wall_s on both variation workloads"),
    ("tangent.random_tangent_calls", "count", True, "wall_s on both variation workloads"),
    ("variation.terms_s", "s", False, "wall_s on both variation workloads"),
    ("variation.seed_p50_s", "s", False, "wall_s on both variation workloads"),
    ("variation.seed_samples", "count", False, "sample count of variation.seed_p50_s"),
    ("variation.positivity_certificate_s", "s", True, "setup_s"),
    ("variation.projector_check_s", "s", False, "wall_s on su2-r2-certify"),
    ("oracle.materialize_s", "s", False, "wall_s on su2-r2-certify"),
    ("oracle.materialize_columns", "count", False, "wall_s on su2-r2-certify"),
    ("oracle.restricted_inverse_dense_s", "s", False, "wall_s on su2-r2-certify"),
    ("cli.self_s", "s", True, "layer total; check-operators' inline dense algebra sits here"),
    ("surface.self_s", "s", True, "layer total: setup_s"),
    ("bundle.self_s", "s", True, "layer total: setup_s and wall_s on all workloads"),
    ("complexes.self_s", "s", True, "layer total: setup_s and wall_s on all workloads"),
    ("calculus.self_s", "s", False, "layer total: wall_s on both variation workloads"),
    ("tangent.self_s", "s", True, "layer total: wall_s on both variation workloads"),
    ("variation.self_s", "s", True, "layer total: wall_s on all workloads"),
    ("oracle.self_s", "s", False, "layer total: wall_s on su2-r2-certify"),
    ("trace.overhead_s", "s", True, "tracer cost: install, span extras, span count times one span's cost"),
    ("trace.overhead_pair_s", "s", False, "traced minus untraced wall of probe plus sequence; host drift swamps it"),
    ("trace.self_sum_gap_s", "s", True, "largest child wall minus the sum of its self times (exit)"),
]

# span names whose self times make up a per-layer metric; the scene
# build is inclusive, since all of its work sits in its children
INCLUSIVE = {"cli.build_scene_s"}
SELF_SUMS = {
    "cli.build_scene_s": ("cli.build_scene",),
    "surface.refine_s": ("surface.refine",),
    "surface.equip_conformal_s": ("surface.equip_conformal",),
    "bundle.refine_cocycle_s": ("bundle.refine_cocycle",),
    "cli.report_write_s": ("cli._finish",),
    "bundle.operators_s": ("bundle.operators",),
    "bundle.ad_matrix_s": ("bundle.ad_matrix",),
    "bundle.is_irreducible_s": ("bundle.is_irreducible",),
    "bundle.twisted_ops_s": (
        "bundle.twisted_dbar",
        "bundle.twisted_d_hol",
        "bundle.twisted_dbar_star",
        "bundle.twisted_d_star",
        "bundle.laplacian",
    ),
    "bundle.delta0_inverse_s": ("bundle.delta0_inverse",),
    "complexes.geometry_s": ("_complexes.geometry",),
    "complexes.assembly_s": (
        "_complexes.scalar_complex",
        "_complexes.tangent_complex",
        "_complexes.endo_complex",
        "_complexes.corner_transports",
    ),
    "complexes.lift_to_vertices_s": ("_complexes.lift_to_vertices",),
    "complexes.vertex_to_face_s": ("_complexes.vertex_to_face",),
    "calculus.lift_face_field_s": ("calculus.lift_face_field",),
    "calculus.beltrami_d_hol_s": ("calculus.beltrami_d_hol",),
    "tangent.random_tangent_s": ("tangent.random_tangent",),
    "variation.terms_s": (
        "variation.second_variation_universal",
        "variation.second_variation_fibered",
        "variation.difference_report",
    ),
    "variation.positivity_certificate_s": ("variation.positivity_certificate",),
    "variation.projector_check_s": (
        "variation.projector_derivative_check",
        "variation.projector_derivative_sweep",
    ),
    "oracle.materialize_s": ("oracle.materialize",),
    "oracle.restricted_inverse_dense_s": ("oracle.restricted_inverse_dense",),
}
CALL_COUNTS = {
    "bundle.ad_matrix_calls": "bundle.ad_matrix",
    "tangent.random_tangent_calls": "tangent.random_tangent",
}
LAYERS = ("cli", "surface", "bundle", "_complexes", "calculus", "tangent", "variation", "oracle")


# ---------------------------------------------------------------------------
# correctness


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)


def _report_close(got: dict, ref: dict) -> bool:
    """Same term names, and every term and the total within RTOL of the
    largest reference magnitude in the report."""
    terms = {t["name"]: (t["re"], t["im"]) for t in got["terms"]}
    if len(terms) != len(got["terms"]) or set(terms) != set(ref["terms"]):
        return False
    pairs = [(terms[k], ref["terms"][k]) for k in terms]
    pairs.append(((got["total"]["re"], got["total"]["im"]), ref["total"]))
    scale = max(max(abs(r[0]), abs(r[1])) for _, r in pairs) or 1.0
    return all(close(g[0], r[0], scale, RTOL) and close(g[1], r[1], scale, RTOL) for g, r in pairs)


def compare_outputs(command: str, report: dict | None, seeds: list[int], ref: dict) -> list[Op]:
    """One operation per seed and report (second-variation) or per seed
    (positivity), checked against the reference values."""
    ops = []
    if command == "second-variation":
        samples = {s["seed"]: s for s in (report or {}).get("samples", [])}
        for s in seeds:
            for system in ("universal", "fibered", "difference"):
                got = samples.get(s, {}).get(system)
                want = ref["second_variation"][str(s)][system]
                ok = got is not None and _report_close(got, want)
                ops.append(Op(f"{command}:reference:seed{s}:{system}", ok))
    elif command == "positivity":
        rows = {int(r[0]): r[1:] for r in (report or {}).get("rows", [])}
        for s in seeds:
            got, want = rows.get(s), ref["positivity"][str(s)]
            scale = max(abs(x) for x in want) or 1.0
            ok = got is not None and all(close(g, w, scale, RTOL) for g, w in zip(got, want))
            ops.append(Op(f"{command}:reference:seed{s}", ok))
    return ops


class Session:
    """Children of one run, with their operations and byte-identity checks."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.w = WORKLOADS[workload]
        self.seeds = seed_list(seed)
        self.ref = load_reference(workload)
        self.known = {cmd: frozenset(v) for cmd, v in self.ref.get("known_failures", {}).items()}
        self.dir = WORK / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / f"config-seed{seed}.json"
        with open(self.config, "w") as fh:
            json.dump(self.w.config(self.seeds), fh, indent=2, sort_keys=True)
        self.ops: list[Op] = []
        self.children = []
        self.first_bytes: dict = {}
        self.t_start = now()
        self.tag = f"seed{seed}-trace{trace}"

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (now() - self.t_start)

    def run(self, command: str, label: str, traced: bool = False):
        args = [command, "--config", str(self.config.relative_to(ROOT))]
        seeds = self.seeds
        if command == PROBE_COMMAND:
            seeds = self.seeds[:1]
            args += ["--seed", str(seeds[0])]
        child = run_cli(args, self.dir / self.tag / label, self.remaining(), traced=traced)
        self.children.append(child)
        ops = child_ops(
            command,
            child.exit_code,
            child.report,
            expected_checks(command, len(seeds)),
            self.known.get(command, frozenset()),
        )
        ops += compare_outputs(command, child.report, seeds, self.ref)
        if command in self.first_bytes:
            ops.append(Op(f"{command}:identical:{label}", child.report_bytes == self.first_bytes[command]))
        else:
            self.first_bytes[command] = child.report_bytes
        self.ops += ops
        if child.exit_code is None:
            raise TimeoutError(f"{' '.join(args)} passed the run deadline")
        return child

    def sequence(self, label: str, traced: bool = False) -> list:
        return [self.run(cmd, f"{label}-{cmd}", traced) for cmd in self.w.commands]


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(traced: list, wall_untraced: float) -> tuple[dict, dict, list]:
    """Per-layer metrics over the traced children, a table of every span
    name's calls, self time and inclusive time, and one operation per
    child checking that its self times add up to its wall time, up to
    SPAN_GAP_TOL_S for what follows the process span."""
    by_name: dict = {}
    solves, seeds, import_s, rss_growth = [], [], [], [0.0]
    report_bytes, columns, gap, overhead, ops = 0, 0, 0.0, 0.0, []
    for k, child in enumerate(traced):
        if child.spans_path is None:  # killed before it could write them
            ops.append(Op(f"trace:spans:{child.out_dir.name}", False))
            continue
        with open(child.spans_path) as fh:
            traced_out = json.load(fh)
        spans, cost = traced_out["spans"], traced_out["cost"]
        selfs = self_times([s[:4] for s in spans])
        child_gap = child.wall_s - sum(selfs)
        ops.append(Op(f"trace:self_sum:{child.out_dir.name}", 0.0 <= child_gap <= SPAN_GAP_TOL_S))
        gap = max(gap, child_gap)
        overhead += cost["install_s"] + cost["extras_s"] + len(spans) * cost["span_s"]
        report_bytes += len(child.report_bytes or b"")
        # a span opens after its parent, so parents come first
        in_seed = [False] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            in_seed[i] = name == "cli._sample_reports" or (parent >= 0 and in_seed[parent])
        for i, (name, start, end, parent, extras) in enumerate(spans):
            row = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["total_s"] += end - start
            if name == "cli.import":
                import_s.append(end - start)
            elif name == "cli._sample_reports":
                seeds.append(end - start)
            elif name == "bundle.operators" and extras:
                rss_growth.append(extras["rss_growth_mb"])
            elif name == "oracle.materialize" and extras:
                columns += extras["columns"]
            elif name == "_complexes.delta0_solve":
                solves.append((k, extras, end - start, in_seed[i]))
    m = {}
    for metric, names in SELF_SUMS.items():
        key = "total_s" if metric in INCLUSIVE else "self_s"
        m[metric] = sum(by_name.get(n, {}).get(key, 0.0) for n in names)
    for metric, name in CALL_COUNTS.items():
        m[metric] = by_name.get(name, {}).get("calls", 0)
    for layer in LAYERS:  # metric names start with a letter
        m[f"{layer.lstrip('_')}.self_s"] = sum(r["self_s"] for n, r in by_name.items() if n.split(".")[0] == layer)
    m["cli.import_s"] = median(import_s) if import_s else 0.0
    m["cli.report_bytes"] = report_bytes
    m["bundle.operators_rss_mb"] = max(rss_growth)
    m["oracle.materialize_columns"] = columns
    first, rest, distinct, seen_pairs = [], [], set(), set()
    for k, ex, dur, _ in solves:
        pair = (k, ex["complex"], ex["which"])
        (rest if pair in seen_pairs else first).append(dur)
        seen_pairs.add(pair)
        distinct.add(pair + (ex["rhs"],))
    m["complexes.solve_calls"] = len(solves)
    in_seeds = sum(1 for s in solves if s[3])
    m["complexes.solves_per_seed"] = in_seeds / len(seeds) if seeds else 0
    m["complexes.solve_distinct_ratio"] = len(distinct) / len(solves) if solves else 0.0
    m["complexes.solve_p50_s"] = median(rest) if rest else 0.0
    m["complexes.solve_first_s"] = sum(first)
    m["complexes.solve_residual_max"] = max((s[1]["residual"] for s in solves), default=0.0)
    m["variation.seed_p50_s"] = median(seeds) if seeds else 0.0
    m["variation.seed_samples"] = len(seeds)
    m["trace.overhead_s"] = overhead
    m["trace.overhead_pair_s"] = sum(c.wall_s for c in traced) - wall_untraced
    m["trace.self_sum_gap_s"] = gap
    detail = {
        "spans": by_name,
        "solve_p50": summarize(rest) if rest else None,
        "seed_wall": summarize(seeds) if seeds else None,
        "solves_first": len(first),
        "solves_in_seeds": in_seeds,
        "distinct_rhs": len(distinct),
    }
    return m, detail, ops


# ---------------------------------------------------------------------------
# provenance


def provenance(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    import numpy  # after the measurements: only the versions are wanted

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "workload_seed": seed,
        "seeds": seed_list(seed),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# the run


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    ses = Session(workload, seed, trace)
    detail: dict = {}
    try:
        if trace:
            # traced, untraced, untraced, traced: a linear drift over the
            # four steps cancels in trace.overhead_pair_s
            traced = [ses.run(PROBE_COMMAND, "probe-traced", traced=True)]
            untraced = [ses.run(PROBE_COMMAND, "probe")] + ses.sequence("seq")
            traced += ses.sequence("seq-traced", traced=True)
            metrics, detail, trace_ops = layer_metrics(traced, sum(c.wall_s for c in untraced))
            ses.ops += trace_ops
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        else:
            setup = [ses.run(PROBE_COMMAND, f"probe{i}").wall_s for i in range(PROBES)]
            walls = []
            while len(walls) < MIN_SEQUENCES or now() - ses.t_start + walls[-1] <= seconds:
                walls.append(sum(c.wall_s for c in ses.sequence(f"seq{len(walls)}")))
            _, _, failed_all = count_ops(ses.ops)
            metrics = {
                "wall_s": median(walls),
                "setup_s": median(setup),
                "peak_rss_mb": max(c.peak_rss_mb for c in ses.children),
                "passed_frac": 1.0 - failed_all / len(ses.ops),
            }
            detail = {"wall_s": walls, "setup_s": setup}
            units = END_TO_END
    except TimeoutError as e:
        print(f"error: {e}", file=sys.stderr)
        metrics, units = {}, {}
    attempted, failed, failed_all = count_ops(ses.ops)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    prov = provenance(workload, seed)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    _print_human(workload, trace, metrics, detail, ses)
    with open(ses.dir / f"result-{ses.tag}.json", "w") as fh:
        json.dump(
            {
                "result": result,
                "provenance": prov,
                "detail": detail,
                "failed_ops": [op.name for op in ses.ops if not op.ok],
                "children": [
                    {"argv": c.argv[1:], "exit": c.exit_code, "wall_s": c.wall_s, "peak_rss_mb": c.peak_rss_mb}
                    for c in ses.children
                ],
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    if trace:
        compared = {name for name, _, keep, _ in LAYER_METRICS if keep}
        result["metrics"] = {k: v for k, v in result["metrics"].items() if k in compared}
    return result


def _print_human(workload, trace, metrics, detail, ses) -> None:
    print(f"== {workload}  seeds {ses.seeds}")
    for child in ses.children:
        print(
            f"   {child.out_dir.name:<40} exit {child.exit_code}  "
            f"{child.wall_s:8.3f} s  {child.peak_rss_mb:7.1f} MB"
        )
    attempted, failed, failed_all = count_ops(ses.ops)
    for op in ses.ops:
        if not op.ok:
            print(f"   failed op: {op.name}{'  (known at the reference commit)' if op.known else ''}")
    print(f"   operations: {attempted} attempted, {failed_all} failed ({failed_all - failed} known)")
    if trace and metrics:
        for name, unit, keep, moves in LAYER_METRICS:
            if not keep and not metrics[name]:
                print(f"   {name:<36} {'not run':>14}")
            else:
                print(f"   {name:<36} {metrics[name]:>14.6g} {unit:<6} -> {moves}")
        print(f"   solve durations after the first per complex: {detail['solve_p50']}")
        if detail["seed_wall"]:
            print(f"   wall per seed: {detail['seed_wall']}")
    elif metrics:
        print(f"   wall_s       {metrics['wall_s']:10.4f} s   median of {len(detail['wall_s'])} sequences")
        print(f"   setup_s      {metrics['setup_s']:10.4f} s   median of {len(detail['setup_s'])} probes")
        print(f"   peak_rss_mb  {metrics['peak_rss_mb']:10.1f} MB  max over {len(ses.children)} children")
        print(f"   passed_frac  {metrics['passed_frac']:10.4f}     of {attempted} operations")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not program_present():
        print(f"error: no modulilab sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if a.workload == "all" else [a.workload]
    results = [run_workload(name, a.seed, a.seconds, a.trace) for name in names]
    for r in results:
        print(json.dumps(r, sort_keys=True))
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
