"""Command-line front end.

Exit codes (warnings never change them):

=====  =========================================================
0      success
2      bad command line (argparse)
3      input path missing or unreadable
4      case file cannot be parsed
5      case file parsed but the model is invalid
6      network disconnected / grounded matrix singular
7      power flow did not converge
8      cover solver failure (defensive; should not occur)
9      decomposition kernel failure
10     report files could not be written
1      anything unexpected
=====  =========================================================
"""

from __future__ import annotations

import argparse
import sys

from . import errors
from .pipeline import (JAC_FLAT, JAC_SOLVED, MODE_COUNT, MODE_FULL,
                       MODE_PLACE, RunConfig, run, run_batch)

# Ordered: specific classes must precede their base-class catch-alls.
_EXIT_CODES = [
    ((errors.DisconnectedNetwork, errors.SingularSubmatrix), 6),
    ((errors.MalformedRecord, errors.MissingSection), 4),
    ((errors.NonConvergence,), 7),
    ((errors.SolverError,), 8),
    ((errors.DecompositionError,), 9),
    ((errors.ReportError,), 10),
    ((errors.CaseError,), 5),
    ((OSError,), 3),
]


def _exit_code(exc: BaseException) -> int:
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmuplace",
        description="Minimum monitor sets and locations for complete "
                    "power-network observability.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", help="case file (IEEE common data format) "
                        "or CSV-bundle directory")
    source.add_argument("--cases-dir", help="directory of case files; runs "
                        "every case and writes a summary table")
    parser.add_argument("--structure", default="both",
                        choices=["topological", "electrical", "both"])
    parser.add_argument("--jacobian", default=JAC_SOLVED,
                        choices=[JAC_SOLVED, JAC_FLAT],
                        help="operating point for the electrical path: the "
                             "power-flow solution or the flat profile")
    parser.add_argument("--mode", default=MODE_FULL,
                        choices=[MODE_COUNT, MODE_PLACE, MODE_FULL])
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for report.json and figure CSVs")
    parser.add_argument("--enumerate", type=int, default=0, metavar="N",
                        dest="enumerate_cap",
                        help="list up to N optimal monitor sets")
    parser.add_argument("--dump-distance", metavar="CSV",
                        help="write the resistance-distance matrix")
    parser.add_argument("--dump-ybus", metavar="CSV",
                        help="write the bus admittance matrix")
    parser.add_argument("--dump-adjacency", metavar="CSV",
                        help="write the binary adjacency")
    parser.add_argument("--pf-tol", type=float, default=1e-8,
                        help="power-flow mismatch tolerance, per-unit")
    parser.add_argument("--pf-max-iter", type=int, default=50)
    return parser


def _print_structure(name: str, result, enumerate_cap: int):
    art = result.artifacts
    ext = art.case.external_id
    mode_note = f" ({art.jacobian_mode} operating point)" \
        if art.jacobian_mode else ""
    print(f"[{name}]{mode_note} optimal monitor count: "
          f"{art.solution.count}")
    print(f"[{name}] cover buses: "
          f"{[ext(b) for b in art.solution.nodes]}")
    if art.ranking is not None:
        print(f"[{name}] placement by coupling strength:")
        for a in art.ranking.selected:
            note = "" if a.rank == 1 else \
                f"  (deflected from bus {ext(a.intended_bus)}, " \
                f"entry rank {a.rank})"
            print(f"  vector {a.vector_index:>3}  |sigma*u| = "
                  f"{a.magnitude:.6g}  -> bus {ext(a.bus)}{note}")
        print(f"[{name}] placement buses: "
              f"{[ext(b) for b in art.ranking.buses]}")
    lam_min = float(art.profile.lam_min)
    print(f"[{name}] lambda_min = {lam_min:.6g} at buses "
          f"{[ext(b) for b in art.profile.argmins]}; chosen buses above "
          f"the minimum: {[ext(b) for b in art.pattern.above_minimum]}")
    if result.optima is not None:
        sets = [[ext(b) for b in sol.nodes] for sol in result.optima]
        suffix = " (truncated)" if result.optima.truncated else ""
        print(f"[{name}] optimal sets (cap {enumerate_cap}){suffix}: {sets}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cases_dir and not args.out:
        parser.error("--cases-dir requires --out (summary and per-case "
                     "reports are written there)")
    try:
        config = RunConfig(
            case_path=args.case or args.cases_dir,
            structure=args.structure,
            jacobian_mode=args.jacobian,
            mode=args.mode,
            output_dir=args.out,
            pf_tol=args.pf_tol,
            pf_max_iter=args.pf_max_iter,
            enumerate_cap=args.enumerate_cap,
            dump_distance=args.dump_distance,
            dump_ybus=args.dump_ybus,
            dump_adjacency=args.dump_adjacency,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.cases_dir:
            summary = run_batch(args.cases_dir, config)
            print(f"summary written to {summary}")
            print(summary.read_text(), end="")
            return 0
        result = run(config)
        for structure, sres in result.per_structure.items():
            _print_structure(structure, sres, args.enumerate_cap)
            for path in sres.written:
                print(f"[{structure}] wrote {path}")
        return 0
    except Exception as exc:  # mapped to the documented exit codes
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
