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

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import report as report_mod
from .cases import PowerCase, load_case
from .cover import CoverInstance, Optima, enumerate_optima, solve_cover
from .distance import ResistanceDistance, electrical_adjacency, resistance_matrix
from .errors import PmuPlaceError, UsageError
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
        rules = [(name, getattr(self, name) in allowed, f"one of {allowed}")
                 for name, allowed in (
                     ("structure", STRUCTURES + ("both",)),
                     ("jacobian_mode", (JAC_SOLVED, JAC_FLAT)),
                     ("mode", (MODE_COUNT, MODE_FULL)))]
        rules += [("enumerate_cap", self.enumerate_cap >= 0, ">= 0"),
                  ("pf_max_iter", self.pf_max_iter >= 0, ">= 0"),
                  ("pf_tol", self.pf_tol > 0, "> 0")]
        for name, ok, rule in rules:
            if not ok:
                raise UsageError(f"{name} must be {rule}, "
                                 f"got {getattr(self, name)!r}")
        if self.dump_distance and self.structure == TOPOLOGICAL:
            raise UsageError("dump_distance needs the electrical structure; "
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
    per_structure: dict[str, StructureResult]


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
    return RunResult(case, {
        structure: run_structure(case, structure, config, ybus=ybus)
        for structure in config.structures()})


SUMMARY_HEADER = ("case,n,topological_count,electrical_count(solved),"
                  "electrical_count(flat)")

# The summary's count columns: (structure, operating point, output
# subdirectory). The topological path reads no operating point.
_BATCH_CELLS = ((TOPOLOGICAL, JAC_SOLVED, TOPOLOGICAL),
                (ELECTRICAL, JAC_SOLVED, f"electrical_{JAC_SOLVED}"),
                (ELECTRICAL, JAC_FLAT, f"electrical_{JAC_FLAT}"))


def _batch_cases(directory: Path) -> dict[str, Path]:
    """The directory's case files and bundles by name, in file-name order."""
    cases: dict[str, Path] = {}
    for path in sorted(directory.iterdir(), key=lambda p: p.name):
        if path.is_file() and path.suffix in (".txt", ".cdf"):
            name = path.stem
        elif path.is_dir() and (path / "case.toml").exists():
            name = path.name
        else:
            continue
        if name in cases:
            raise UsageError(f"batch (--cases-dir) has two cases named "
                             f"{name!r}: {cases[name].name} and {path.name}")
        cases[name] = path
    return cases


def _error_cell(exc: Exception) -> str:
    return f"error:{type(exc).__name__}"


def run_batch(template: RunConfig) -> Path:
    """Run every case in the directory `template.case_path` and write a
    summary table.

    Per case the summary reports the topological count and the
    electrical count under both operating-point conventions. A failing
    case yields an error marker in its row; the batch continues.
    Template settings the batch would lose or ignore, and two cases of
    one name, are a `UsageError` before anything is written.
    Returns the summary path.
    """
    refused = [name for name in ("dump_distance", "dump_ybus",
                                 "dump_adjacency", "enumerate_cap")
               if getattr(template, name)]
    refused += [name for name, value in (("structure", "both"),
                                         ("jacobian_mode", JAC_SOLVED))
                if getattr(template, name) != value]
    if not template.output_dir:
        raise UsageError("batch (--cases-dir) needs output_dir (--out): the "
                         "summary and per-case reports are written there")
    if refused:
        raise UsageError(f"batch (--cases-dir) cannot honour "
                         f"{', '.join(refused)}: it runs every case under "
                         "both structures and both operating points and "
                         "writes only the summary and per-case reports")
    out_root = Path(template.output_dir)

    rows = [SUMMARY_HEADER]
    for stem, path in _batch_cases(Path(template.case_path)).items():
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
