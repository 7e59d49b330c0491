"""Fuzzed case input: small generated networks, with parallel circuits
and mutated fields, in both file formats. The readers may raise only
`PmuPlaceError` subclasses, and the command line may end only with
exit code 0 or a documented failure code (2-10)."""

import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace import cli
from pmuplace.errors import PmuPlaceError

# Replacements for one field: non-numbers, non-finite and extreme
# values (1e-160 squares to a subnormal, 1e-320 is one), an unknown
# bus, and an empty cell.
TOKENS = ["nan", "inf", "-inf", "x", "", "0", "-0.0", "-1", "1e308",
          "-1e308", "1e-300", "1e-160", "1e-320", "7", "2.5", "PV",
          "slack", "3"]

CELL = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False).map(
    lambda v: f"{v:.3f}")


@st.composite
def networks(draw):
    """(bus rows, branch rows) as text cells: a connected chain plus
    extra branches, which may run parallel to the chain."""
    n = draw(st.integers(2, 4))
    buses = []
    for i in range(1, n + 1):
        kind = "slack" if i == 1 else draw(st.sampled_from(["PQ", "PV"]))
        vmag = draw(st.sampled_from(["1.0", "1.02", "0.98"]))
        buses.append([str(i), kind, vmag, "0.0"]
                     + [draw(CELL) for _ in range(4)] + ["0.0", "0.0"])
    pairs = [(i, i + 1) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                           .filter(lambda p: p[0] != p[1]), max_size=4))
    branches = [[str(f), str(t), "0.01",
                 draw(st.sampled_from(["0.1", "0.25", "0.5"])),
                 "0.0", "1.0", "0.0"] for f, t in pairs]
    return buses, branches


@st.composite
def mutated_networks(draw):
    buses, branches = draw(networks())
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.sampled_from([buses, branches]))
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(TOKENS))
    return buses, branches


def csv_bundle(buses, branches) -> dict[str, str]:
    return {
        "case.toml": "name = fuzz\nmva_base = 100.0\n",
        "buses.csv": "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs\n"
                     + "".join(",".join(r) + "\n" for r in buses),
        "branches.csv": "from,to,r,x,b,tap,shift_deg\n"
                        + "".join(",".join(r) + "\n" for r in branches),
    }


def _fixed(fields, width) -> str:
    """Place each (start, end, text) right-aligned in its columns."""
    line = [" "] * width
    for start, end, text in fields:
        line[start:end] = text[-(end - start):].rjust(end - start)
    return "".join(line)


_CDF_TYPE = {"PQ": "0", "PV": "2", "slack": "3"}


def cdf_text(buses, branches) -> str:
    """The same network in the IEEE common data format; its load and
    generation cells read as MW on a 100 MVA base."""
    lines = [" 01/01/26 FUZZ                   100.0 2026 S FUZZ CASE",
             "BUS DATA FOLLOWS"]
    for b in buses:
        lines.append(_fixed([
            (0, 4, b[0]), (24, 26, _CDF_TYPE.get(b[1], b[1])),
            (27, 33, b[2]), (33, 40, b[3]), (40, 49, b[4]), (49, 59, b[5]),
            (59, 67, b[6]), (67, 75, b[7]), (106, 114, b[8]),
            (114, 122, b[9])], 122))
    lines += ["-999", "BRANCH DATA FOLLOWS"]
    for br in branches:
        lines.append(_fixed([
            (0, 4, br[0]), (5, 9, br[1]), (19, 29, br[2]), (29, 40, br[3]),
            (40, 50, br[4]), (76, 82, br[5]), (83, 90, br[6])], 90))
    lines += ["-999", "END OF DATA"]
    return "\n".join(lines) + "\n"


def read_or_reject(parse, text):
    try:
        parse(text)
    except PmuPlaceError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_networks(), st.sampled_from(["topological", "electrical"]),
       st.sampled_from(["solved", "flat"]), st.sampled_from(["count", "full"]))
def test_fuzzed_cases_end_in_documented_errors(network, structure, jacobian,
                                               mode):
    buses, branches = network
    files = csv_bundle(buses, branches)
    cdf = cdf_text(buses, branches)
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore")
        read_or_reject(pp.parse_csv_fallback, "\n".join(
            f"[{section}]\n{files[name]}" for section, name in (
                ("case", "case.toml"), ("buses", "buses.csv"),
                ("branches", "branches.csv"))))
        read_or_reject(pp.parse_cdf, cdf)
        bundle = Path(tmp) / "bundle"
        bundle.mkdir()
        for name, text in files.items():
            (bundle / name).write_text(text)
        (Path(tmp) / "case.txt").write_text(cdf)
        for case in (bundle, Path(tmp) / "case.txt"):
            code = cli.main(["--case", str(case), "--structure", structure,
                             "--jacobian", jacobian, "--mode", mode,
                             "--out", str(Path(tmp) / "out")])
            assert code == 0 or 2 <= code <= 10, (case, code)
