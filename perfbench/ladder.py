"""Size ladder: one-seed su2 second-variation on genus 2 with hyperbolic
density at refinements 2 to 5, each child under an address-space limit.

    python3 perfbench/ladder.py [--out PATH]

Not a compared workload: it records, per size, the outcome (``ok`` or the
exception that stopped the run), the unknowns, the wall time and the peak
RSS.  The limit makes an oversized dense allocation fail at once with
MemoryError instead of pressing on the host's memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from children import ROOT, SRC, WORK, program_present, run_cli  # noqa: E402

GENUS = 2
RANK = 2  # su2 preset
REFINEMENTS = (2, 3, 4, 5)
AS_LIMIT_GIB = 3  # refinement 3 peaks at 1.2 GB; refinement 4 asks for 9 GiB
TIMEOUT_S = 600.0


def outcome(exit_code: int | None, stderr_tail: str) -> str:
    """``ok`` for exit 0, else the exception class named on the last
    stderr line, else the exit code."""
    if exit_code == 0:
        return "ok"
    if exit_code is None:
        return "timeout"
    head = stderr_tail.split(":", 1)[0].strip()
    if head and " " not in head:
        name = head.rsplit(".", 1)[-1]
        return "MemoryError" if name.endswith("MemoryError") else name
    return f"exit {exit_code}"


def sizes(refinements: int) -> dict:
    """Faces, vertices and Laplacian unknowns after 1-to-4 refinements of
    the 4g-gon gluing (closed triangulation: V = F/2 + 2 - 2g)."""
    sys.path.insert(0, str(SRC))
    from modulilab.surface import build_polygon_gluing

    faces = build_polygon_gluing(GENUS).n_faces * 4**refinements
    vertices = faces // 2 + 2 - 2 * GENUS
    return {"faces": faces, "vertices": vertices, "unknowns": RANK * RANK * vertices}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=WORK / "ladder.json")
    a = ap.parse_args(argv)
    if not program_present():
        print(f"error: no modulilab sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / "ladder"
    work.mkdir(parents=True, exist_ok=True)
    rows = []
    for r in REFINEMENTS:
        cfg = {
            "mesh": {"genus": GENUS, "refinements": r, "layout": "stored", "density": "hyperbolic"},
            "bundle": {"preset": "su2"},
            "seeds": [0],
            "dense_cap": 6000,
        }
        path = work / f"r{r}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        child = run_cli(
            ["second-variation", "--config", str(path.relative_to(ROOT))],
            work / f"r{r}",
            TIMEOUT_S,
            as_limit_bytes=AS_LIMIT_GIB * 2**30,
        )
        row = {
            "refinements": r,
            **sizes(r),
            "outcome": outcome(child.exit_code, child.stderr_tail),
            "exit_code": child.exit_code,
            "wall_s": round(child.wall_s, 3),
            "peak_rss_mb": round(child.peak_rss_mb, 1),
            "error": "" if child.exit_code == 0 else child.stderr_tail[:300],
        }
        rows.append(row)
        print(
            f"r{r}  F={row['faces']:>6}  unknowns={row['unknowns']:>6}  {row['outcome']:<12} "
            f"{row['wall_s']:8.2f} s  {row['peak_rss_mb']:8.1f} MB",
            flush=True,
        )
    a.out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": "second-variation, seeds [0], genus 2, su2, stored layout, hyperbolic density",
        "address_space_limit_gib": AS_LIMIT_GIB,
        "rows": rows,
    }
    a.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
