"""Average-distance diagnostics and machine-readable run reports.

The average electrical (or topological) distance of a bus is its
adjacency row sum, diagonal included, divided by N-1. Values are kept
as exact rationals so that ties at the minimum are genuine ties, not
float accidents: whether a bus sits at the minimum is an equality test.

Reports are plain JSON plus per-figure CSV files; rendering is left to
external tooling so outputs stay diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cases import PowerCase
from .cover import PlacementSolution
from .errors import ReportError
from .network import BinaryAdjacency
from .spectral import CouplingRanking, SingularDecomposition


@dataclass(frozen=True)
class AverageDistanceProfile:
    """Per-bus average connectivity fractions with exact-tie argmins."""

    lam: tuple[Fraction, ...]
    lam_min: Fraction
    argmins: tuple[int, ...]

    @property
    def floats(self) -> list[float]:
        return [float(v) for v in self.lam]

    def above_minimum(self, nodes) -> tuple[int, ...]:
        """The given buses whose average distance exceeds the minimum.
        The expected electrical pattern for a chosen monitor set: every
        bus sits at the minimum except the single representative of the
        well-connected cluster, i.e. at most one bus above."""
        return tuple(b for b in nodes if self.lam[b - 1] > self.lam_min)


def average_profile(adj: BinaryAdjacency) -> AverageDistanceProfile:
    """Row-sum fractions lambda_i = (sum_j adj_ij) / (N-1).

    The diagonal term is included, so every value lies in
    [1/(N-1), N/(N-1)]. Argmins use exact rational comparison.
    """
    n = adj.n
    sums = adj.bits.sum(axis=1)
    lam = tuple(Fraction(int(s), n - 1) for s in sums)
    lam_min = min(lam)
    argmins = tuple(i + 1 for i, v in enumerate(lam) if v == lam_min)
    return AverageDistanceProfile(lam=lam, lam_min=lam_min, argmins=argmins)


@dataclass(frozen=True)
class RunArtifacts:
    """Everything one structure's pipeline run produced."""

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
    conflicts = []
    svd_buses: list[int] = []
    sigma: list[float] = []
    if art.ranking is not None:
        svd_buses = sorted(ext(a.bus) for a in art.ranking.selected)
        conflicts = [
            {"vector": a.vector_index, "intended_bus": ext(a.intended_bus),
             "assigned_bus": ext(a.bus), "rank": a.rank}
            for a in art.ranking.conflicts
        ]
    if art.decomposition is not None:
        sigma = [float(s) for s in art.decomposition.sigma]
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
        "lambda_min": float(art.profile.lam_min),
        "sigma": sigma,
        "conflicts": conflicts,
        "source_checksum": case.source_checksum,
    }


def _write(path: Path, lines: list[str]) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ReportError(path, str(exc)) from exc
    return path


def emit_report(art: RunArtifacts, out_dir: str | Path) -> list[Path]:
    """Write report.json and the figure CSVs; returns written paths."""
    out = Path(out_dir)
    written = [_write(out / "report.json", [
        json.dumps(report_dict(art), indent=2, sort_keys=True)])]

    ext = art.case.external_id
    chosen = set(art.solution.nodes)
    lines = ["bus,lambda,x"]
    for i, lam in enumerate(art.profile.lam, start=1):
        lines.append(f"{ext(i)},{float(lam)!r},{1 if i in chosen else 0}")
    written.append(_write(out / "fig_lambda.csv", lines))

    if art.decomposition is not None:
        lines = ["n,magnitude"]
        for n, s in enumerate(art.decomposition.sigma, start=1):
            lines.append(f"{n},{float(s)!r}")
        written.append(_write(out / "fig_sigma.csv", lines))

    if art.ranking is not None and art.decomposition is not None:
        lines = ["vector_rank,vector_index,bus,abs_entry,assigned,assignment_rank"]
        for pos, a in enumerate(art.ranking.selected, start=1):
            column = np.abs(art.decomposition.u[:, a.vector_index - 1])
            for i in range(art.case.n):
                assigned = 1 if (i + 1) == a.bus else 0
                rank = a.rank if assigned else 0
                lines.append(f"{pos},{a.vector_index},{ext(i + 1)},"
                             f"{float(column[i])!r},{assigned},{rank}")
        written.append(_write(out / "fig_assignment.csv", lines))

    return written


def _dump_matrix(path: Path, matrix: np.ndarray, case: PowerCase) -> Path:
    """CSV dump with external bus ids as header and row labels. Cells
    are Python number reprs (complex ones as `re+imj`), which parse back
    to the exact matrix."""
    ids = [str(case.external_id(i + 1)) for i in range(case.n)]
    lines = ["bus," + ",".join(ids)]
    matrix = np.ascontiguousarray(matrix)
    if np.iscomplexobj(matrix):
        # A Y-bus is mostly one zero: format each distinct bit pattern
        # once (bits, not values, so 0.0 and -0.0 stay apart).
        raw = matrix.view(np.dtype((np.void, matrix.itemsize)))
        distinct, where = np.unique(raw.ravel(), return_inverse=True)
        text = [f"{v.real!r}{v.imag:+}j"
                for v in distinct.view(matrix.dtype).tolist()]
        for label, row in zip(ids, where.reshape(matrix.shape)):
            lines.append(f"{label}," + ",".join([text[k]
                                                 for k in row.tolist()]))
    else:
        for label, row in zip(ids, matrix.tolist()):
            lines.append(f"{label}," + ",".join([repr(v) for v in row]))
    return _write(path, lines)
