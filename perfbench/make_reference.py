"""Record the reference outputs that ``run.py`` compares every run against.

    python3 perfbench/make_reference.py [workload ...]

For every seed of the window it stores the second-variation term values
and totals (variation workloads) and the positivity terms, and it lists
the report checks that already fail at this commit as known failures.
Run it only on the commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from children import ROOT, WORK, run_cli  # noqa: E402
from workloads import PROBE_COMMAND, SEED_WINDOW, WORKLOADS  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference"


def _run(work: Path, label: str, command: str, cfg: dict):
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{label}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    child = run_cli([command, "--config", str(path.relative_to(ROOT))], work / label, timeout_s=900)
    if child.report is None or child.exit_code not in (0, 1):
        raise SystemExit(f"{command} on {label} gave no report (exit {child.exit_code}): {child.stderr_tail}")
    failing = [c["name"] for c in child.report["checks"] if not c["pass"]]
    return child.report, failing


def _system(rep: dict) -> dict:
    return {
        "terms": {t["name"]: [t["re"], t["im"]] for t in rep["terms"]},
        "total": [rep["total"]["re"], rep["total"]["im"]],
    }


def record(name: str) -> dict:
    w = WORKLOADS[name]
    work = WORK / "reference" / name
    seeds = list(range(SEED_WINDOW))
    ref: dict = {"seeds": seeds, "known_failures": {}}
    known: dict[str, set] = {}
    report, failing = _run(work, "positivity", PROBE_COMMAND, w.config(seeds))
    ref["positivity"] = {str(int(r[0])): r[1:] for r in report["rows"]}
    known.setdefault(PROBE_COMMAND, set()).update(failing)
    for command in w.commands:
        if command == "second-variation":
            report, failing = _run(work, command, command, w.config(seeds))
            ref["second_variation"] = {
                str(s["seed"]): {k: _system(s[k]) for k in ("universal", "fibered", "difference")}
                for s in report["samples"]
            }
            known.setdefault(command, set()).update(failing)
        else:  # uses only the first seed of the list
            for s in seeds:
                _, failing = _run(work, f"{command}-{s}", command, w.config([s]))
                known.setdefault(command, set()).update(failing)
    ref["known_failures"] = {k: sorted(v) for k, v in sorted(known.items()) if v}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    except OSError:
        sha = ""
    ref["recorded_at"] = sha.strip() or None
    return ref


def main(names: list[str]) -> None:
    OUT.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = record(name)
        with open(OUT / f"{name}.json", "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: known failures {ref['known_failures']}")


if __name__ == "__main__":
    main(sys.argv[1:])
