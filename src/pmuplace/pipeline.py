"""End-to-end pipeline: case file to placement report.

Stage order per structure:

* topological - adjacency from branches, exact cover, then (unless
  counting only) the admittance-matrix placement.
* electrical - admittance matrix, operating point (solved power flow
  or the flat profile), angle-sensitivity conductances, resistance
  distances grounded at the slack, closest-pair adjacency with as many
  links as branches, exact cover, then the distance-matrix placement.

Counting mode never touches the singular-value stage. All outputs are
deterministic: rerunning a config writes byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import report as report_mod
from .cases import PowerCase, load_case
from .cover import CoverInstance, Optima, enumerate_optima, solve_cover
from .distance import ResistanceDistance, electrical_adjacency, resistance_matrix
from .errors import PmuPlaceError
from .network import (ELECTRICAL, TOPOLOGICAL, BinaryAdjacency, build_ybus,
                      topological_adjacency)
from .powerflow import (DEFAULT_MAX_ITER, DEFAULT_TOL, OperatingPoint,
                        flat_point, p_theta_jacobian, solve_power_flow)
from .report import RunArtifacts, average_profile
from .spectral import assign_buses, compute_svd, rank_vectors

MODE_COUNT = "count"
MODE_FULL = "full"

JAC_SOLVED = "solved"
JAC_FLAT = "flat"

STRUCTURES = (TOPOLOGICAL, ELECTRICAL)


@dataclass(frozen=True)
class RunConfig:
    case_path: str | Path
    structure: str = "both"            # topological | electrical | both
    jacobian_mode: str = JAC_SOLVED    # solved | flat
    mode: str = MODE_FULL              # count | full
    output_dir: str | Path | None = None
    pf_tol: float = DEFAULT_TOL
    pf_max_iter: int = DEFAULT_MAX_ITER
    enumerate_cap: int = 0
    dump_distance: str | Path | None = None
    dump_ybus: str | Path | None = None
    dump_adjacency: str | Path | None = None

    def __post_init__(self):
        for name, allowed in (("structure", STRUCTURES + ("both",)),
                              ("jacobian_mode", (JAC_SOLVED, JAC_FLAT)),
                              ("mode", (MODE_COUNT, MODE_FULL))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")
        if not self.enumerate_cap >= 0:
            raise ValueError(f"enumerate_cap must be >= 0, "
                             f"got {self.enumerate_cap!r}")
        if not self.pf_max_iter >= 0:
            raise ValueError(f"pf_max_iter must be >= 0, "
                             f"got {self.pf_max_iter!r}")
        if not self.pf_tol > 0:
            raise ValueError(f"pf_tol must be > 0, got {self.pf_tol!r}")
        if self.dump_distance and self.structure == TOPOLOGICAL:
            raise ValueError("dump_distance needs the electrical structure; "
                             "the topological path computes no distances")

    def structures(self) -> tuple[str, ...]:
        if self.structure == "both":
            return STRUCTURES
        return (self.structure,)


@dataclass(frozen=True)
class StructureResult:
    artifacts: RunArtifacts
    optima: Optima | None
    written: tuple[Path, ...]


@dataclass(frozen=True)
class RunResult:
    case: PowerCase
    per_structure: dict[str, StructureResult] = field(default_factory=dict)


def _electrical_distance(case: PowerCase, ybus: np.ndarray,
                         config: RunConfig) -> ResistanceDistance:
    if config.jacobian_mode == JAC_FLAT:
        op: OperatingPoint = flat_point(case)
    else:
        op = solve_power_flow(case, tol=config.pf_tol,
                              max_iter=config.pf_max_iter, ybus=ybus)
    conductance = p_theta_jacobian(case, op, ybus=ybus)
    return resistance_matrix(conductance, case.slack_index)


def run_structure(case: PowerCase, structure: str, config: RunConfig,
                  ybus: np.ndarray | None = None) -> StructureResult:
    """Run one structure's stages; emits files when an output directory
    is configured."""
    if ybus is None:
        ybus = build_ybus(case)

    dist: ResistanceDistance | None = None
    if structure == TOPOLOGICAL:
        adjacency: BinaryAdjacency = topological_adjacency(case)
        placement_matrix = ybus
        jac_mode = None
    else:
        dist = _electrical_distance(case, ybus, config)
        adjacency = electrical_adjacency(dist, case.m)
        placement_matrix = dist.e
        jac_mode = config.jacobian_mode

    inst = CoverInstance(adjacency=adjacency)
    solution = solve_cover(inst)

    decomposition = None
    ranking = None
    if config.mode != MODE_COUNT:
        decomposition = compute_svd(placement_matrix)
        ranked = rank_vectors(decomposition, solution.count)
        ranking = assign_buses(decomposition, ranked, solution.count)

    optima = None
    if config.enumerate_cap > 0:
        optima = enumerate_optima(inst, config.enumerate_cap)

    artifacts = RunArtifacts(case=case, structure=structure,
                             jacobian_mode=jac_mode, solution=solution,
                             ranking=ranking, decomposition=decomposition,
                             profile=average_profile(adjacency))

    written: list[Path] = []
    if config.output_dir is not None:
        out = Path(config.output_dir)
        if config.structure == "both":
            out = out / structure
        written = report_mod.emit_report(artifacts, out)

    if config.dump_distance and dist is not None:
        written.append(report_mod._dump_matrix(Path(config.dump_distance),
                                               dist.e, case))
    if config.dump_ybus and structure == config.structures()[0]:
        written.append(report_mod._dump_matrix(Path(config.dump_ybus), ybus,
                                               case))
    if config.dump_adjacency:
        target = Path(config.dump_adjacency)
        if config.structure == "both":
            target = target.with_name(f"{structure}_{target.name}")
        written.append(report_mod._dump_matrix(target, adjacency.bits, case))

    return StructureResult(artifacts=artifacts, optima=optima,
                           written=tuple(written))


def run(config: RunConfig) -> RunResult:
    """Execute the configured stages; raises PmuPlaceError subclasses
    on stage failures (the CLI maps them to exit codes). No output
    files are created unless the case loads and validates."""
    case = load_case(config.case_path)
    ybus = build_ybus(case)
    result = RunResult(case=case)
    for structure in config.structures():
        result.per_structure[structure] = run_structure(
            case, structure, config, ybus=ybus)
    return result


SUMMARY_HEADER = ("case,n,topological_count,electrical_count(solved),"
                  "electrical_count(flat)")

# The summary's count columns: (structure, operating point, output
# subdirectory). The topological path reads no operating point.
_BATCH_CELLS = ((TOPOLOGICAL, JAC_SOLVED, TOPOLOGICAL),
                (ELECTRICAL, JAC_SOLVED, f"electrical_{JAC_SOLVED}"),
                (ELECTRICAL, JAC_FLAT, f"electrical_{JAC_FLAT}"))


def _case_paths(directory: Path) -> list[Path]:
    paths = [p for p in directory.iterdir()
             if (p.is_file() and p.suffix in (".txt", ".cdf"))
             or (p.is_dir() and (p / "case.toml").exists())]
    return sorted(paths, key=lambda p: p.name)


def _error_cell(exc: Exception) -> str:
    return f"error:{type(exc).__name__}"


def run_batch(cases_dir: str | Path, template: RunConfig) -> Path:
    """Run every case in a directory and write a summary table.

    Per case the summary reports the topological count and the
    electrical count under both operating-point conventions. A failing
    case yields an error marker in its row; the batch continues.
    Returns the summary path.
    """
    directory = Path(cases_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    if template.output_dir is None:
        raise ValueError("batch runs need an output directory")
    out_root = Path(template.output_dir)

    rows = [SUMMARY_HEADER]
    for path in _case_paths(directory):
        stem = path.stem if path.is_file() else path.name
        try:
            case = load_case(path)
            ybus = build_ybus(case)
        except (PmuPlaceError, OSError) as exc:
            rows.append(",".join([stem, ""]
                                 + [_error_cell(exc)] * len(_BATCH_CELLS)))
            continue
        cells = [stem, str(case.n)]
        for structure, jac, subdir in _BATCH_CELLS:
            cfg = replace(template, case_path=path, structure=structure,
                          jacobian_mode=jac, output_dir=out_root / stem / subdir)
            try:
                sres = run_structure(case, structure, cfg, ybus=ybus)
                cells.append(str(sres.artifacts.solution.count))
            except PmuPlaceError as exc:
                cells.append(_error_cell(exc))
        rows.append(",".join(cells))

    return report_mod._write(out_root / "summary.csv", rows)
