"""Command-line front end; README lists the exit codes (warnings never
change them)."""

from __future__ import annotations

import argparse
import sys

from . import errors
from .pipeline import CHOICES, RunConfig, run, run_batch


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, errors.PmuPlaceError):
        return exc.exit_code
    return 3 if isinstance(exc, OSError) else 1


def build_parser() -> argparse.ArgumentParser:
    """Settings store into their `RunConfig` field; None means its default."""
    parser = argparse.ArgumentParser(
        prog="pmuplace",
        description="Minimum monitor sets and locations for complete "
                    "power-network observability.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", help="case file (IEEE common data format) "
                        "or CSV-bundle directory")
    source.add_argument("--cases-dir", help="directory of case files; runs "
                        "every case and writes a summary table")
    parser.add_argument("--structure", choices=CHOICES["structure"])
    parser.add_argument("--jacobian", dest="jacobian_mode",
                        choices=CHOICES["jacobian_mode"],
                        help="operating point for the electrical path: the "
                             "power-flow solution or the flat profile")
    parser.add_argument("--mode", choices=CHOICES["mode"])
    parser.add_argument("--out", dest="output_dir", metavar="DIR",
                        help="directory for report.json and figure CSVs")
    parser.add_argument("--enumerate", type=int, metavar="N",
                        dest="enumerate_cap",
                        help="list up to N optimal monitor sets")
    parser.add_argument("--dump-distance", metavar="CSV",
                        help="write the resistance-distance matrix")
    parser.add_argument("--dump-ybus", metavar="CSV",
                        help="write the bus admittance matrix")
    parser.add_argument("--dump-adjacency", metavar="CSV",
                        help="write the binary adjacency")
    parser.add_argument("--pf-tol", type=float,
                        help="power-flow mismatch tolerance, per-unit")
    parser.add_argument("--pf-max-iter", type=int)
    return parser


def _print_structure(name: str, result, config: RunConfig):
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
    above = art.profile.above_minimum(art.solution.nodes)
    print(f"[{name}] lambda_min = {art.profile.lam_min:.6g} at buses "
          f"{[ext(b) for b in art.profile.argmins]}; chosen buses above "
          f"the minimum: {[ext(b) for b in above]}")
    if result.optima is not None:
        sets = [[ext(b) for b in sol.nodes] for sol in result.optima]
        suffix = " (truncated)" if result.optima.truncated else ""
        print(f"[{name}] optimal sets (cap {config.enumerate_cap})"
              f"{suffix}: {sets}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = {key: value for key, value in vars(args).items()
                if value is not None and key not in ("case", "cases_dir")}
    batch = args.cases_dir is not None
    try:
        config = RunConfig(case_path=args.cases_dir if batch else args.case,
                           **settings)
        if batch:
            summary = run_batch(config)
            print(f"summary written to {summary}")
            print(summary.read_text(), end="")
        else:
            for structure, sres in run(config).per_structure.items():
                _print_structure(structure, sres, config)
                for path in sres.written:
                    print(f"[{structure}] wrote {path}")
        return 0
    except errors.UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:  # mapped to the documented exit codes
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
