"""The three benchmark workloads: generated configs, command sequences and
the seed window.  Shared by ``run.py`` and ``make_reference.py``."""

from __future__ import annotations

from dataclasses import dataclass

# A workload seed n runs seeds (n + i) mod SEED_WINDOW, i < SEEDS_PER_RUN.
# The committed references cover every seed of the window.
SEED_WINDOW = 24
SEEDS_PER_RUN = 8

TANGENT = {"mu_scale": 1.0, "nu_scale": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mesh: dict
    bundle: dict
    commands: tuple  # CLI command names run in order, each in its own child

    def config(self, seeds: list[int]) -> dict:
        return {
            "mesh": dict(self.mesh),
            "bundle": dict(self.bundle),
            "seeds": list(seeds),
            "dense_cap": 6000,
            "tangent": dict(TANGENT),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "su2-r3-variation",
            "headline su2 second-variation at 1,016 unknowns: dense LAPACK plus per-face fiber algebra",
            {"genus": 2, "refinements": 3, "layout": "stored", "density": "hyperbolic"},
            {"preset": "su2"},
            ("second-variation",),
        ),
        Workload(
            "trivial-r4-variation",
            "rank-1 second-variation on 2,048 faces: same Laplacian size, per-face Python loops dominate",
            {"genus": 2, "refinements": 4, "layout": "equilateral", "density": "uniform"},
            {"preset": "trivial", "n": 1},
            ("second-variation",),
        ),
        # mesh, bundle and tangent scales of the shipped configs/genus2_su2.json
        Workload(
            "su2-r2-certify",
            "shipped su2 config through check-operators and projector-derivative: dense oracle work",
            {"genus": 2, "refinements": 2, "layout": "stored", "density": "hyperbolic"},
            {"preset": "su2"},
            ("check-operators", "projector-derivative"),
        ),
    )
}

PROBE_COMMAND = "positivity"

# report.json checks each command writes: positivity writes two per seed
# and second-variation one per seed.
FIXED_CHECKS = {"check-operators": 6, "projector-derivative": 2}


def expected_checks(command: str, n_seeds: int) -> int:
    if command == "positivity":
        return 2 * n_seeds
    if command == "second-variation":
        return n_seeds
    return FIXED_CHECKS[command]


def seed_list(workload_seed: int) -> list[int]:
    return [(workload_seed + i) % SEED_WINDOW for i in range(SEEDS_PER_RUN)]
