"""Average-distance diagnostics and machine-readable run reports.

The average electrical (or topological) distance of a bus is its
adjacency row sum, diagonal included, divided by N-1. Values are kept
as exact rationals so that ties at the minimum are genuine ties, not
float accidents: the placement pattern check is an equality test.

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
    kind: str

    @property
    def floats(self) -> list[float]:
        return [float(v) for v in self.lam]


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
    return AverageDistanceProfile(lam=lam, lam_min=lam_min,
                                  argmins=argmins, kind=adj.kind)


@dataclass(frozen=True)
class PatternReport:
    """How the chosen monitor buses sit against the distance minimum."""

    at_minimum: tuple[int, ...]
    above_minimum: tuple[int, ...]
    pattern_holds: bool


def pattern_check(profile: AverageDistanceProfile,
                  sol: PlacementSolution) -> PatternReport:
    """Classify each chosen bus as at or above the minimum average
    distance. The expected electrical pattern: every chosen bus sits at
    the minimum except the single representative of the well-connected
    cluster, i.e. at most one bus above."""
    at_min = tuple(b for b in sol.nodes if profile.lam[b - 1] == profile.lam_min)
    above = tuple(b for b in sol.nodes if profile.lam[b - 1] > profile.lam_min)
    return PatternReport(at_minimum=at_min, above_minimum=above,
                         pattern_holds=len(above) <= 1)


def _json_default(value):
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


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
    pattern: PatternReport


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


def _write(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ReportError(path, str(exc)) from exc


def emit_report(art: RunArtifacts, out_dir: str | Path) -> list[Path]:
    """Write report.json and the figure CSVs; returns written paths."""
    out = Path(out_dir)
    written = []

    payload = report_dict(art)
    path = out / "report.json"
    _write(path, json.dumps(payload, indent=2, sort_keys=True,
                            default=_json_default) + "\n")
    written.append(path)

    ext = art.case.external_id
    chosen = set(art.solution.nodes)
    lines = ["bus,lambda,x"]
    for i, lam in enumerate(art.profile.lam, start=1):
        lines.append(f"{ext(i)},{float(lam)!r},{1 if i in chosen else 0}")
    path = out / "fig_lambda.csv"
    _write(path, "\n".join(lines) + "\n")
    written.append(path)

    if art.decomposition is not None:
        lines = ["n,magnitude"]
        for n, s in enumerate(art.decomposition.sigma, start=1):
            lines.append(f"{n},{float(s)!r}")
        path = out / "fig_sigma.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)

    if art.ranking is not None and art.decomposition is not None:
        lines = ["vector_rank,vector_index,bus,abs_entry,assigned,assignment_rank"]
        for pos, a in enumerate(art.ranking.selected, start=1):
            column = np.abs(art.decomposition.u[:, a.vector_index - 1])
            for i in range(art.case.n):
                assigned = 1 if (i + 1) == a.bus else 0
                rank = a.rank if assigned else 0
                lines.append(f"{pos},{a.vector_index},{ext(i + 1)},"
                             f"{float(column[i])!r},{assigned},{rank}")
        path = out / "fig_assignment.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)

    return written

