"""End-to-end pipeline: case file to placement report.

Stage order per structure:

* topological - adjacency from branches, exact cover, then (unless
  counting only) the admittance-matrix placement.
* electrical - admittance matrix, operating point (solved power flow
  or the flat profile), angle-sensitivity conductances, resistance
  distances grounded at the slack, closest-pair adjacency with as many
  links as branches, exact cover, then the distance-matrix placement.

Counting mode never touches the singular-value stage. A single run and
each batch cell compute every structure first, then write all their
files or none, so a failing stage leaves nothing on disk. All outputs
are deterministic: rerunning a config writes byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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
from .report import RunArtifacts, average_profile, matrix_lines, report_files
from .spectral import assign_buses, compute_svd, rank_vectors

MODE_COUNT = "count"
MODE_FULL = "full"

JAC_SOLVED = "solved"
JAC_FLAT = "flat"

STRUCTURES = (TOPOLOGICAL, ELECTRICAL)

# The allowed values of each `RunConfig` choice, in the order usage
# lists them.
CHOICES = {"structure": STRUCTURES + ("both",),
           "jacobian_mode": (JAC_SOLVED, JAC_FLAT),
           "mode": (MODE_COUNT, MODE_FULL)}


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
                 for name, allowed in CHOICES.items()]
        rules += [(name, hasattr(getattr(self, name), "__index__")
                   and getattr(self, name) >= 0, "an integer >= 0")
                  for name in ("enumerate_cap", "pf_max_iter")]
        rules.append(("pf_tol", 0 < self.pf_tol < np.inf, "finite and > 0"))
        rules += [(name, getattr(self, name) != "", "a non-empty path")
                  for name in ("case_path", "output_dir", "dump_distance",
                               "dump_ybus", "dump_adjacency")]
        for name, ok, rule in rules:
            if not ok:
                raise UsageError(f"{name} must be {rule}, "
                                 f"got {getattr(self, name)!r}")
        if self.dump_distance and self.structure == TOPOLOGICAL:
            raise UsageError("dump_distance needs the electrical structure; "
                             "the topological path computes no distances")


@dataclass(frozen=True)
class StructureResult:
    artifacts: RunArtifacts
    optima: Optima | None
    adjacency: BinaryAdjacency
    distance: ResistanceDistance | None   # electrical structure only
    written: tuple[Path, ...] = ()


@dataclass(frozen=True)
class RunResult:
    case: PowerCase
    per_structure: dict[str, StructureResult]


def run_structure(case: PowerCase, structure: str, config: RunConfig,
                  ybus: np.ndarray) -> StructureResult:
    """Run one structure's stages. Reads only `config`'s stage settings
    (operating point, power-flow limits, mode, cap); writes nothing."""
    dist: ResistanceDistance | None = None
    if structure == TOPOLOGICAL:
        adjacency: BinaryAdjacency = topological_adjacency(case)
    else:
        if config.jacobian_mode == JAC_FLAT:
            op: OperatingPoint = flat_point(case)
        else:
            op = solve_power_flow(case, tol=config.pf_tol,
                                  max_iter=config.pf_max_iter, ybus=ybus)
        dist = resistance_matrix(p_theta_jacobian(case, op, ybus=ybus),
                                 case.slack_index)
        adjacency = electrical_adjacency(dist, case.m)

    inst = CoverInstance(adjacency=adjacency)
    solution = solve_cover(inst)

    decomposition = ranking = None
    if config.mode != MODE_COUNT:
        decomposition = compute_svd(ybus if dist is None else dist.e)
        ranked = rank_vectors(decomposition, solution.count)
        ranking = assign_buses(decomposition, ranked)

    optima = (enumerate_optima(inst, config.enumerate_cap)
              if config.enumerate_cap > 0 else None)

    jac_mode = None if dist is None else config.jacobian_mode
    artifacts = RunArtifacts(case=case, structure=structure,
                             jacobian_mode=jac_mode, solution=solution,
                             ranking=ranking, decomposition=decomposition,
                             profile=average_profile(adjacency))
    return StructureResult(artifacts=artifacts, optima=optima,
                           adjacency=adjacency, distance=dist)


def _run_loaded(case: PowerCase, ybus: np.ndarray,
                config: RunConfig) -> RunResult:
    """Compute every configured structure, then write the run's files in
    one `emit_report` call. Under `both` the reports go to `<structure>/`,
    each adjacency dump gets a `<structure>_` prefix and the Y-bus is
    written once, under the first structure. Two outputs at one resolved
    path are a `UsageError`, raised before any file is touched."""
    both = config.structure == "both"
    results = {structure: run_structure(case, structure, config, ybus)
               for structure in (STRUCTURES if both else (config.structure,))}
    plan = {}
    for i, (structure, sres) in enumerate(results.items()):
        files = []
        if config.output_dir is not None:
            out = Path(config.output_dir, structure if both else "")
            files += report_files(sres.artifacts, out).items()
        if config.dump_distance and sres.distance is not None:
            files.append((Path(config.dump_distance),
                          matrix_lines(sres.distance.e, case)))
        if config.dump_ybus and i == 0:
            files.append((Path(config.dump_ybus), matrix_lines(ybus, case)))
        if config.dump_adjacency:
            target = Path(config.dump_adjacency)
            if both:
                target = target.with_name(f"{structure}_{target.name}")
            files.append((target, matrix_lines(sres.adjacency.bits, case)))
        for path, lines in files:
            key = path.resolve()
            if key in plan:
                raise UsageError(f"two outputs of the run would be "
                                 f"written to {key}")
            plan[key] = lines
        results[structure] = replace(sres, written=tuple(p for p, _ in files))
    if plan:
        report_mod.emit_report(plan)
    return RunResult(case, results)


def run(config: RunConfig) -> RunResult:
    """Execute the configured stages, then write the configured files,
    all or none; raises PmuPlaceError subclasses on failures (the CLI
    maps them to exit codes). A run that fails or is refused leaves the
    files at its output paths as they were; only one that fails in a
    write (exit 10) may leave directories it created."""
    case = load_case(config.case_path)
    return _run_loaded(case, build_ybus(case), config)


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
    defaults = {f.name: f.default for f in fields(RunConfig)}
    refused = [name for name in ("dump_distance", "dump_ybus",
                                 "dump_adjacency", "enumerate_cap",
                                 "structure", "jacobian_mode")
               if getattr(template, name) != defaults[name]]
    if template.output_dir is None:
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
                sres, = _run_loaded(case, ybus, cfg).per_structure.values()
                cells.append(str(sres.artifacts.solution.count))
            except PmuPlaceError as exc:
                cells.append(_error_cell(exc))
        rows.append(",".join(cells))

    return report_mod.emit_report({out_root / "summary.csv": rows})[0]
