"""Comparable records of what one operation returned.

An outcome is a plain dict. `digest` holds everything that must repeat
exactly across passes; `detail` holds the matrices that are checked in
the first pass only. Recording needs numpy alone, so the process's peak
memory is read before scipy loads for the checks.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import pmuplace as pp


def run_outcome(result: pp.RunResult) -> dict:
    """Outcome of one `pipeline.run` call."""
    digest, detail = {}, {}
    for structure, sres in result.per_structure.items():
        art = sres.artifacts
        ext = art.case.external_id
        rec = {"count": art.solution.count,
               "cover": [ext(b) for b in art.solution.nodes]}
        if art.ranking is not None and art.decomposition is not None:
            d = art.decomposition
            rec["sigma"] = [float(s) for s in d.sigma]
            rec["svd_buses"] = [ext(a.bus) for a in art.ranking.selected]
            first = art.ranking.selected[0]
            rec["strongest"] = [first.vector_index, ext(first.bus)]
            detail[structure] = {"vector": d.u[:, first.vector_index - 1]}
            if structure == "electrical":
                detail[structure]["distance"] = np.real(
                    (d.u * d.sigma) @ d.v.conj().T)
        if sres.optima is not None:
            rec["optima"] = [[ext(b) for b in sol.nodes]
                             for sol in sres.optima]
            rec["truncated"] = sres.optima.truncated
        digest[structure] = rec
    return {"digest": digest, "detail": detail}


_COUNT_LINE = re.compile(r"^\[(\w+)\].*optimal monitor count: (\d+)$")
_COVER_LINE = re.compile(r"^\[(\w+)\] cover buses: \[([\d, ]*)\]$")


def cli_outcome(code: int, stdout: str, dumps: dict[str, Path]) -> dict:
    """Outcome of one `cli.main` call: the count and cover it printed and
    the matrix dumps parsed back. A non-zero exit is a failed operation,
    like a raised error."""
    if code != 0:
        return {"error": f"exit code {code}"}
    digest: dict = {}
    for line in stdout.splitlines():
        if m := _COUNT_LINE.match(line):
            digest.setdefault(m[1], {})["count"] = int(m[2])
        elif m := _COVER_LINE.match(line):
            digest.setdefault(m[1], {})["cover"] = [
                int(t) for t in m[2].split(",") if t.strip()]
    detail: dict = {}
    for name, path in dumps.items():
        try:
            detail[name] = parse_dump(path)
        except (OSError, ValueError) as exc:
            detail[name] = str(exc)
    return {"digest": digest, "detail": detail}


def _number(cell: str) -> float | complex:
    try:
        return complex(cell) if cell.endswith("j") else float(cell)
    except ValueError:
        raise ValueError(f"cell {cell!r} is not a number") from None


def parse_dump(path: Path) -> tuple[list[int], np.ndarray]:
    """External ids and values of a matrix dump (bus header, one labelled
    row per bus). Raises ValueError on anything else."""
    lines = path.read_text().splitlines()
    ids = [int(t) for t in lines[0].split(",")[1:]]
    rows = []
    for line in lines[1:]:
        label, *cells = line.split(",")
        if len(rows) >= len(ids) or int(label) != ids[len(rows)]:
            raise ValueError(f"row {len(rows) + 1} is labelled {label}")
        rows.append([_number(c) for c in cells])
    return ids, np.array(rows)
