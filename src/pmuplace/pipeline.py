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
from .report import PatternReport, RunArtifacts, average_profile, pattern_check
from .spectral import (ADMITTANCE, DISTANCE, assign_buses, compute_svd,
                       rank_vectors)

MODE_COUNT = "count"
MODE_PLACE = "place"
MODE_FULL = "full"

JAC_SOLVED = "solved"
JAC_FLAT = "flat"

STRUCTURES = (TOPOLOGICAL, ELECTRICAL)


@dataclass(frozen=True)
class RunConfig:
    case_path: str | Path
    structure: str = "both"            # topological | electrical | both
    jacobian_mode: str = JAC_SOLVED    # solved | flat
    mode: str = MODE_FULL              # count | place | full
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
                              ("mode", (MODE_COUNT, MODE_PLACE, MODE_FULL))):
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

    def structures(self) -> tuple[str, ...]:
        if self.structure == "both":
            return STRUCTURES
        return (self.structure,)


@dataclass(frozen=True)
class StructureResult:
    artifacts: RunArtifacts
    optima: Optima | None
    written: tuple[Path, ...]

    @property
    def count(self) -> int:
        return self.artifacts.solution.count


@dataclass(frozen=True)
class RunResult:
    case: PowerCase
    per_structure: dict[str, StructureResult] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {s: r.count for s, r in self.per_structure.items()}


def _electrical_distance(case: PowerCase, ybus: np.ndarray,
                         jacobian_mode: str, pf_tol: float,
                         pf_max_iter: int) -> ResistanceDistance:
    if jacobian_mode == JAC_FLAT:
        op: OperatingPoint = flat_point(case)
    else:
        op = solve_power_flow(case, tol=pf_tol, max_iter=pf_max_iter,
                              ybus=ybus)
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
        source = ADMITTANCE
        jac_mode = None
    else:
        dist = _electrical_distance(case, ybus, config.jacobian_mode,
                                    config.pf_tol, config.pf_max_iter)
        adjacency = electrical_adjacency(dist, case.m)
        placement_matrix = dist.e
        source = DISTANCE
        jac_mode = config.jacobian_mode

    inst = CoverInstance(adjacency=adjacency)
    solution = solve_cover(inst)

    decomposition = None
    ranking = None
    if config.mode != MODE_COUNT:
        decomposition = compute_svd(placement_matrix, source)
        ranked = rank_vectors(decomposition, solution.count)
        ranking = assign_buses(decomposition, ranked, solution.count)

    optima = None
    if config.enumerate_cap > 0:
        optima = enumerate_optima(inst, config.enumerate_cap)

    profile = average_profile(adjacency)
    pattern: PatternReport = pattern_check(profile, solution)
    artifacts = RunArtifacts(case=case, structure=structure,
                             jacobian_mode=jac_mode, solution=solution,
                             ranking=ranking, decomposition=decomposition,
                             profile=profile, pattern=pattern)

    written: list[Path] = []
    if config.output_dir is not None:
        out = Path(config.output_dir)
        if config.structure == "both":
            out = out / structure
        written = report_mod.emit_report(artifacts, out)

    if config.dump_distance and dist is not None:
        written.append(_dump_matrix(Path(config.dump_distance), dist.e, case))
    if config.dump_ybus and structure == config.structures()[0]:
        written.append(_dump_matrix(Path(config.dump_ybus), ybus, case))
    if config.dump_adjacency:
        target = Path(config.dump_adjacency)
        if config.structure == "both":
            target = target.with_name(f"{structure}_{target.name}")
        written.append(_dump_matrix(target, adjacency.bits, case))

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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


SUMMARY_HEADER = ("case,n,topological_count,electrical_count(solved),"
                  "electrical_count(flat)")


def _case_paths(directory: Path) -> list[Path]:
    paths = [p for p in directory.iterdir()
             if (p.is_file() and p.suffix in (".txt", ".cdf"))
             or (p.is_dir() and (p / "case.toml").exists())]
    return sorted(paths, key=lambda p: p.name)


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
        except (PmuPlaceError, OSError) as exc:
            rows.append(f"{stem},,error:{type(exc).__name__},"
                        f"error:{type(exc).__name__},error:{type(exc).__name__}")
            continue
        cells = [stem, str(case.n)]
        ybus = build_ybus(case)

        topo_cfg = replace(template, case_path=path, structure=TOPOLOGICAL,
                           output_dir=out_root / stem / TOPOLOGICAL)
        try:
            cells.append(str(run_structure(case, TOPOLOGICAL, topo_cfg,
                                           ybus=ybus).count))
        except PmuPlaceError as exc:
            cells.append(f"error:{type(exc).__name__}")

        for jac in (JAC_SOLVED, JAC_FLAT):
            cfg = replace(template, case_path=path, structure=ELECTRICAL,
                          jacobian_mode=jac,
                          output_dir=out_root / stem / f"electrical_{jac}")
            try:
                cells.append(str(run_structure(case, ELECTRICAL, cfg,
                                               ybus=ybus).count))
            except PmuPlaceError as exc:
                cells.append(f"error:{type(exc).__name__}")
        rows.append(",".join(cells))

    summary = out_root / "summary.csv"
    summary.parent.mkdir(parents=True, exist_ok=True)
    summary.write_text("\n".join(rows) + "\n")
    return summary
