"""Tied IEEE-118 grids: k copies of the bundled 118-bus system joined
by seeded tie lines, written as CSV-bundle case files.

Built from the public API only (`load_bundled_case`,
`dumps_csv_fallback`, `load_case` and `dataclasses.replace`). In copy
c (counted from 0) every internal index moves up by 118*c and every
external id by 1000*c; in copies 1..k-1 the slack becomes a PV bus
holding its file voltage and generation, so the grid keeps one slack.
Copy c-1 and copy c are joined by one tie line whose two endpoints are
drawn uniformly from a `random.Random(seed)` stream.

Write the grid the `count-export` workload uses for seed 1 with::

    PYTHONPATH=src python3 perfbench/tied.py --copies 2 --seed 1 --out tied
"""

from __future__ import annotations

import argparse
import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pmuplace as pp

# A short, lightly loaded interconnector; both ends keep their own
# generation, so little power crosses it and the power flow converges
# in 4-5 Newton steps, against 4 on a single copy.
TIE_R = 0.01
TIE_X = 0.05
TIE_B = 0.02

_FILES = (("case", "case.toml"), ("buses", "buses.csv"),
          ("branches", "branches.csv"))


def tied_case(copies: int, seed: int) -> pp.PowerCase:
    """The k-copy grid as an in-memory case (not validated by the
    reader; `write_case` checks it on the way back in)."""
    if copies < 1:
        raise ValueError("need at least one copy")
    base = pp.load_bundled_case("ieee118")
    n = base.n
    rng = random.Random(seed)
    buses, branches = [], []
    for c in range(copies):
        for bus in base.buses:
            bus_type = bus.bus_type
            if c and bus_type == "slack":
                bus_type = "PV"
            buses.append(replace(bus, index=bus.index + n * c,
                                 external_id=bus.external_id + 1000 * c,
                                 bus_type=bus_type))
        branches += [replace(br, from_bus=br.from_bus + n * c,
                             to_bus=br.to_bus + n * c)
                     for br in base.branches]
        if c:
            a = rng.randrange(n) + 1 + n * (c - 1)
            b = rng.randrange(n) + 1 + n * c
            branches.append(pp.Branch(from_bus=a, to_bus=b, r=TIE_R,
                                      x=TIE_X, b_charging=TIE_B))
    return replace(base, name=f"ieee118x{copies}-s{seed}",
                   buses=tuple(buses), branches=tuple(branches),
                   source_checksum="",
                   external_ids={b.index: b.external_id for b in buses})


def write_case(case: pp.PowerCase, directory: Path) -> dict[str, str]:
    """Write `case` as a CSV bundle; check that it reparses to the same
    buses and branches; return each file's SHA-256."""
    text = pp.dumps_csv_fallback(case)
    parts: dict[str, list[str]] = {}
    section = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            parts[section] = []
        elif section is not None:
            parts[section].append(line)
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for section, fname in _FILES:
        data = ("\n".join(parts[section]).strip("\n") + "\n").encode()
        (directory / fname).write_bytes(data)
        digests[fname] = hashlib.sha256(data).hexdigest()
    back = pp.load_case(directory)
    if back.buses != case.buses or back.branches != case.branches:
        raise RuntimeError(f"{directory} does not reparse to the grid "
                           "it was written from")
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--copies", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="bundle directory")
    args = parser.parse_args(argv)
    digests = write_case(tied_case(args.copies, args.seed), Path(args.out))
    for fname, digest in digests.items():
        print(f"{digest}  {Path(args.out) / fname}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
