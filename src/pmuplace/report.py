"""Average-distance diagnostics and machine-readable run reports.

The average electrical (or topological) distance of a bus is its
adjacency row sum, diagonal included, divided by N-1. The row sums are
kept as integers so that ties at the minimum are genuine ties, not
float accidents: whether a bus sits at the minimum is an integer
equality test.

Reports are plain JSON plus per-figure CSV files; rendering is left to
external tooling so outputs stay diffable.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cases import PowerCase
from .cover import PlacementSolution
from .errors import ReportError
from .network import BinaryAdjacency
from .spectral import CouplingRanking, SingularDecomposition


@dataclass(frozen=True)
class AverageDistanceProfile:
    """Per-bus adjacency row sums s_i with exact-tie argmins; the
    average distance is lambda_i = s_i / (N-1)."""

    sums: tuple[int, ...]
    argmins: tuple[int, ...]

    @property
    def floats(self) -> list[float]:
        """lambda_i, each the correctly rounded quotient s_i / (N-1)."""
        return [s / (len(self.sums) - 1) for s in self.sums]

    @property
    def lam_min(self) -> float:
        return min(self.sums) / (len(self.sums) - 1)

    def above_minimum(self, nodes) -> tuple[int, ...]:
        """The given buses whose average distance exceeds the minimum.
        The expected electrical pattern for a chosen monitor set: every
        bus sits at the minimum except the single representative of the
        well-connected cluster, i.e. at most one bus above."""
        low = min(self.sums)
        return tuple(b for b in nodes if self.sums[b - 1] > low)


def average_profile(adj: BinaryAdjacency) -> AverageDistanceProfile:
    """Row sums s_i = sum_j adj_ij, for lambda_i = s_i / (N-1).

    The diagonal term is included, so every lambda lies in
    [1/(N-1), N/(N-1)]. Argmins compare the integer sums.
    """
    sums = tuple(adj.bits.sum(axis=1).tolist())
    low = min(sums)
    argmins = tuple(i + 1 for i, s in enumerate(sums) if s == low)
    return AverageDistanceProfile(sums=sums, argmins=argmins)


@dataclass(frozen=True)
class RunArtifacts:
    """Everything one structure's pipeline run produced. `ranking` and
    `decomposition` are both set (full mode) or both None (count mode)."""

    case: PowerCase
    structure: str
    jacobian_mode: str | None
    solution: PlacementSolution
    ranking: CouplingRanking | None
    decomposition: SingularDecomposition | None
    profile: AverageDistanceProfile


def report_dict(art: RunArtifacts) -> dict:
    """Assemble the JSON-ready report (external bus ids throughout)."""
    case = art.case
    ext = case.external_id
    svd_buses, sigma, conflicts = [], [], []
    if art.ranking is not None:
        svd_buses = [ext(b) for b in art.ranking.buses]
        sigma = art.decomposition.sigma.tolist()
        conflicts = [
            {"vector": a.vector_index, "intended_bus": ext(a.intended_bus),
             "assigned_bus": ext(a.bus), "rank": a.rank}
            for a in art.ranking.conflicts
        ]
    return {
        "case": case.name,
        "n": case.n,
        "m": case.m,
        "structure": art.structure,
        "jacobian_mode": art.jacobian_mode,
        "pmu_count": art.solution.count,
        "ilp_buses": [ext(b) for b in art.solution.nodes],
        "svd_buses": svd_buses,
        "lambda": art.profile.floats,
        "lambda_min": art.profile.lam_min,
        "sigma": sigma,
        "conflicts": conflicts,
        "source_checksum": case.source_checksum,
    }


def report_files(art: RunArtifacts, out_dir: Path) -> dict[Path, Iterable[str]]:
    """report.json and the figure CSVs under `out_dir`, each path with
    its lines; `fig_assignment.csv` is rendered as it is written."""
    ids = [b.external_id for b in art.case.buses]
    chosen = set(art.solution.nodes)
    payload = report_dict(art)
    files = {"report.json": [json.dumps(payload, indent=2, sort_keys=True)],
             "fig_lambda.csv": ["bus,lambda,x"] + [
                 f"{ids[i - 1]},{lam!r},{int(i in chosen)}"
                 for i, lam in enumerate(payload["lambda"], start=1)]}
    if art.ranking is not None:
        files["fig_sigma.csv"] = ["n,magnitude"] + [
            f"{n},{s!r}" for n, s in enumerate(payload["sigma"], start=1)]
        files["fig_assignment.csv"] = _assignment_lines(art, ids)
    return {out_dir / name: lines for name, lines in files.items()}


def _assignment_lines(art: RunArtifacts, ids: list[int]) -> Iterator[str]:
    yield "vector_rank,vector_index,bus,abs_entry,assigned,assignment_rank"
    for pos, a in enumerate(art.ranking.selected, start=1):
        prefix = f"{pos},{a.vector_index},"
        u = np.abs(art.decomposition.u[:, a.vector_index - 1]).tolist()
        for i, (bus, entry) in enumerate(zip(ids, map(repr, u)), start=1):
            mark = f"1,{a.rank}" if i == a.bus else "0,0"
            yield f"{prefix}{bus},{entry},{mark}"


def _bit_patterns(flat: np.ndarray):
    """The distinct bit patterns of a 1-D array, in an order no caller
    may rely on, and each cell's index among them. Each cell is sorted
    as one unsigned word, or two for a 16-byte one, and equal
    neighbours share a pattern."""
    words = flat.view(f"u{min(flat.itemsize, 8)}").reshape(flat.size, -1).T
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    new = np.zeros(flat.size, dtype=bool)
    new[0] = True
    for word in words:
        ranked = word[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    where = np.empty_like(order)
    where[order] = np.cumsum(new) - 1
    return flat[order[new]], where


def matrix_lines(matrix: np.ndarray, case: PowerCase) -> Iterator[str]:
    """CSV dump with external bus ids as header and row labels. Cells
    are Python number reprs (complex ones as `re+imj`), which parse back
    to the exact matrix. Each distinct bit pattern is formatted once,
    for every dtype: bits, not values, so 0.0 and -0.0 stay apart."""
    ids = [str(b.external_id) for b in case.buses]
    yield "bus," + ",".join(ids)
    distinct, where = _bit_patterns(np.ascontiguousarray(matrix).reshape(-1))
    cell = (lambda v: f"{v.real!r}{v.imag:+}j") \
        if np.iscomplexobj(matrix) else repr
    text = np.array([cell(v) for v in distinct.tolist()], dtype=object)
    for label, row in zip(ids, where.reshape(matrix.shape)):
        yield f"{label}," + ",".join(text[row].tolist())


def emit_report(files: dict[Path, Iterable[str]]) -> list[Path]:
    """Write every file of `files` (path -> lines), all or none, and
    return the paths. Each is first written to `<target>.tmp` (plus a
    `~` per name taken by an output or a file); the temps replace their
    targets only once all are written, and a failure removes them."""
    targets = [Path(path).resolve() for path in files]
    temps = [Path(f"{target}.tmp") for target in targets]
    while any(temp in targets or temp.exists() for temp in temps):
        temps = [Path(f"{temp}~") for temp in temps]
    try:
        for path, target, temp in zip(files, targets, temps):
            if target.is_dir():
                raise ReportError(f"{path}: is a directory")
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            temp.write_text("\n".join(files[path]) + "\n")
        for path, target, temp in zip(files, targets, temps):
            temp.replace(target)
    except OSError as exc:
        raise ReportError(f"{path}: {exc}") from exc
    finally:
        for temp in temps:
            if temp.exists():
                temp.unlink()
    return list(files)
