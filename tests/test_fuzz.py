"""Fuzzed case input: small generated networks, with parallel circuits
and mutated fields, in both file formats. The readers may raise only
`PmuPlaceError` subclasses, and the command line may end only with
exit code 0 or a documented failure code (2-10). A case built by hand,
which no reader read, may raise only `PmuPlaceError` subclasses, when
it is made or in the stages, and no warning; one that the case and the
Y-bus accept reads back from its CSV dump."""

import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace import cli
from pmuplace.cases import PQ, PV, SLACK
from pmuplace.errors import (CaseError, NonConvergence, PmuPlaceError,
                             SingularSubmatrix, TieAtThreshold)
from pmuplace.pipeline import STRUCTURES, RunConfig, run_structure

# Replacements for one field: non-numbers, non-finite and extreme
# values (1e-160 squares to a subnormal, 1e-320 is one), an unknown
# bus, and an empty cell.
TOKENS = ["nan", "inf", "-inf", "x", "", "0", "-0.0", "-1", "1e308",
          "-1e308", "1e-300", "1e-160", "1e-320", "7", "2.5", "PV",
          "slack", "3"]

# Replacements for one numeric field of a hand-built `Bus` or `Branch`:
# zero of both signs, a negative, a subnormal, extremes, and the
# non-finite values that no reader lets through.
VALUES = [0.0, -0.0, -1.0, 1e-320, 1e-160, 1e308, -1e308, math.nan,
          math.inf, -math.inf, 2.5]
BUS_FIELDS = ("v_mag", "v_ang_deg", "p_load", "q_load", "p_gen", "q_gen",
              "shunt_g", "shunt_b")
BRANCH_FIELDS = ("r", "x", "b_charging", "tap_ratio", "shift_deg")

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
    """(bus rows, branch rows, case header), up to two fields replaced;
    the header is ``[name, mva_base]``, and a blank value may replace
    one of its fields."""
    buses, branches = draw(networks())
    header = ["fuzz", "100.0"]
    for _ in range(draw(st.integers(0, 2))):
        rows = draw(st.sampled_from([buses, branches, [header]]))
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
            TOKENS + ["  "] if row is header else TOKENS))
    return buses, branches, header


def csv_bundle(buses, branches, header) -> dict[str, str]:
    name, mva_base = header
    return {
        "case.toml": f"name = {name}\nmva_base = {mva_base}\n",
        "buses.csv": "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs\n"
                     + "".join(",".join(r) + "\n" for r in buses),
        "branches.csv": "from,to,r,x,b,tap,shift_deg\n"
                        + "".join(",".join(r) + "\n" for r in branches),
    }


def csv_document(buses, branches, header) -> str:
    files = csv_bundle(buses, branches, header)
    return "\n".join(f"[{section}]\n{files[name]}" for section, name in (
        ("case", "case.toml"), ("buses", "buses.csv"),
        ("branches", "branches.csv")))


def _fixed(fields, width) -> str:
    """Place each (start, end, text) right-aligned in its columns."""
    line = [" "] * width
    for start, end, text in fields:
        line[start:end] = text[-(end - start):].rjust(end - start)
    return "".join(line)


_CDF_TYPE = {"PQ": "0", "PV": "2", "slack": "3"}


def cdf_text(buses, branches, header) -> str:
    """The same network in the IEEE common data format, the header's
    MVA base in title columns 32-37; its load and generation cells read
    as MW on that base."""
    lines = [f" 01/01/26 FUZZ{header[1][-6:]:>23} 2026 S FUZZ CASE",
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
    files = csv_bundle(*network)
    cdf = cdf_text(*network)
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore")
        read_or_reject(pp.parse_csv_fallback, csv_document(*network))
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


@st.composite
def hand_built_cases(draw):
    """A network of `networks()`, read once, and its buses and branches
    with up to two fields replaced through `dataclasses.replace`: a
    numeric field, a bus index (0 to n + 1), a bus type (or an unknown
    one), an external id (1 to n + 1, so it may repeat another bus's,
    or one that is not an integer) or a branch end (bus index 0 or
    n + 1)."""
    case = pp.parse_csv_fallback(
        csv_document(*draw(networks()), ["fuzz", "100.0"]))
    buses, branches = list(case.buses), list(case.branches)
    for _ in range(draw(st.integers(0, 2))):
        records = draw(st.sampled_from([buses, branches]))
        k = draw(st.integers(0, len(records) - 1))
        if records is buses:
            field = draw(st.sampled_from(
                ("bus_type", "external_id", "index") + BUS_FIELDS))
            value = draw({
                "index": st.integers(0, case.n + 1),
                "bus_type": st.sampled_from([SLACK, PQ, PV, "PQX"]),
                "external_id": (st.integers(1, case.n + 1)
                                | st.sampled_from([2.0, True])),
            }.get(field, st.sampled_from(VALUES)))
        else:
            field = draw(st.sampled_from(
                BRANCH_FIELDS + ("from_bus", "to_bus")))
            value = draw(st.sampled_from(
                [0, case.n + 1] if field.endswith("bus") else VALUES))
        records[k] = replace(records[k], **{field: value})
    return case, tuple(buses), tuple(branches)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hand_built_cases(), st.sampled_from(["count", "full"]))
def test_hand_built_cases_end_in_documented_errors(records, mode):
    # A tie at the link cutoff is a documented diagnostic, which equal
    # reactances on a ring raise with no field replaced.
    base, buses, branches = records
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", TieAtThreshold)
        try:
            case = replace(base, buses=buses, branches=branches)
            ybus = pp.build_ybus(case)
        except PmuPlaceError:
            return
        for structure in STRUCTURES:
            for jacobian in ("solved", "flat"):
                config = RunConfig(case_path="unused", structure=structure,
                                   jacobian_mode=jacobian, mode=mode)
                try:
                    run_structure(case, structure, config, ybus)
                except PmuPlaceError:
                    pass


# The case and the Y-bus accept only what the readers accept, so a
# hand-built case they take is written and read back field for field.
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hand_built_cases())
def test_accepted_hand_built_cases_read_back_from_their_dump(records):
    base, buses, branches = records
    try:
        case = replace(base, buses=buses, branches=branches)
        pp.build_ybus(case)
    except PmuPlaceError:
        return
    back = pp.parse_csv_fallback(pp.dumps_csv_fallback(case))
    assert (back.buses, back.branches) == (case.buses, case.branches)


# One hand-built extreme per stage whose arithmetic can leave the float
# range: each ends in that stage's documented error, with no warning.
EXTREMES = {
    "pv-voltage-1e308": ("ieee9", "buses", 1, {"v_mag": 1e308}, "solved",
                         NonConvergence, "mismatch inf-norm nan"),
    "row-sum-overflow": ("two_bus", "branches", 0,
                         {"r": 0.0, "x": 1e-308, "shift_deg": 180.0}, "flat",
                         CaseError, "the angle sensitivity is not finite"),
    "reactance-1e308": ("two_bus", "branches", 0, {"x": 1e308}, "flat",
                        SingularSubmatrix, "distances beyond the float range"),
}


@pytest.mark.parametrize("extreme", EXTREMES)
def test_hand_built_extremes(request, extreme):
    name, table, k, fields, jacobian, error, detail = EXTREMES[extreme]
    case = request.getfixturevalue(name)
    records = list(getattr(case, table))
    records[k] = replace(records[k], **fields)
    case = replace(case, **{table: tuple(records)})
    config = RunConfig(case_path="unused", structure="electrical",
                       jacobian_mode=jacobian, mode="count")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=detail):
            run_structure(case, "electrical", config, pp.build_ybus(case))
