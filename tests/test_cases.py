"""Case model and reader tests."""

import cmath
import codecs
import math
import re
import shutil
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace import cli, errors
from conftest import (TRIANGLE_CSV, TWO_BUS_CDF, TWO_SLACK_CDF, load_tied,
                      write_bundle)


class TestCdfParser:
    def test_ieee14_counts(self, ieee14):
        assert ieee14.n == 14
        assert ieee14.m == 20

    def test_ieee14_fields(self, ieee14):
        slack = ieee14.buses[0]
        assert slack.bus_type == pp.cases.SLACK
        assert slack.v_mag == pytest.approx(1.06)
        assert slack.p_gen == pytest.approx(2.324)  # 232.4 MW on 100 MVA
        bus9 = ieee14.buses[8]
        assert bus9.shunt_b == pytest.approx(0.19)
        assert bus9.p_load == pytest.approx(0.295)
        assert bus9.v_ang_deg == -14.94
        taps = [br.tap_ratio for br in ieee14.branches if br.tap_ratio != 1.0]
        assert sorted(taps) == pytest.approx([0.932, 0.969, 0.978])

    def test_minimal_two_bus(self, two_bus):
        assert two_bus.n == 2
        assert two_bus.m == 1
        assert two_bus.slack_index == 1
        assert two_bus.branches[0].x == pytest.approx(0.5)

    def test_two_slack_rejected(self):
        with pytest.raises(errors.DuplicateSlack):
            pp.parse_cdf(TWO_SLACK_CDF)

    def test_no_slack_rejected(self):
        text = TWO_BUS_CDF.replace("   1 BUS 1         1  1  3",
                                   "   1 BUS 1         1  1  0")
        with pytest.raises(errors.MissingSlack):
            pp.parse_cdf(text)

    def test_missing_branch_section(self):
        text = TWO_BUS_CDF.split("BRANCH DATA")[0]
        with pytest.raises(errors.MissingSection):
            pp.parse_cdf(text)

    def test_duplicate_bus_id(self):
        text = TWO_BUS_CDF.replace("   2 BUS 2", "   1 BUS 2")
        with pytest.raises(errors.DuplicateBusId):
            pp.parse_cdf(text)

    def test_malformed_numeric_field(self):
        text = TWO_BUS_CDF.replace("   0.00000    0.50000",
                                   "   0.0000x    0.50000")
        with pytest.raises(errors.MalformedRecord) as exc:
            pp.parse_cdf(text)
        assert exc.value.line_no == 7

    @pytest.mark.parametrize("field, line_no", [
        ("   0.00000        nan", 7), ("   0.00000        inf", 7),
        ("   0.00000       -inf", 7)])
    def test_non_finite_branch_field_rejected(self, field, line_no):
        text = TWO_BUS_CDF.replace("   0.00000    0.50000", field)
        with pytest.raises(errors.MalformedRecord) as exc:
            pp.parse_cdf(text)
        assert exc.value.line_no == line_no

    def test_non_finite_bus_field_rejected(self):
        text = TWO_BUS_CDF.replace("   2 BUS 2         1  1  0 1.0000",
                                   "   2 BUS 2         1  1  0    nan")
        with pytest.raises(errors.MalformedRecord) as exc:
            pp.parse_cdf(text)
        assert exc.value.line_no == 4

    def test_non_finite_mva_base_rejected(self):
        # A negative base would flip the sign of every injection.
        for base in ("   inf", "-100.0"):
            text = TWO_BUS_CDF.replace(" 100.0 2026", f"{base} 2026")
            with pytest.raises(errors.MalformedRecord) as exc:
                pp.parse_cdf(text)
            assert exc.value.line_no == 1

    # Only a blank base reads as 100 MVA (a stated zero is refused by
    # `test_rejected_case_file`).
    def test_blank_mva_base_reads_as_100(self, two_bus):
        text = TWO_BUS_CDF.replace(" 100.0 2026", "       2026")
        assert text != TWO_BUS_CDF
        assert pp.parse_cdf(text).mva_base == 100.0 == two_bus.mva_base

    def test_negative_reactance_rejected(self):
        text = TWO_BUS_CDF.replace("   0.00000    0.50000",
                                   "   0.00000   -0.50000")
        with pytest.raises(errors.InvalidBranch):
            pp.parse_cdf(text)

    def test_zero_impedance_rejected(self):
        text = TWO_BUS_CDF.replace("   0.00000    0.50000",
                                   "   0.00000    0.00000")
        with pytest.raises(errors.InvalidBranch):
            pp.parse_cdf(text)

    def test_external_ids_remapped(self):
        text = TWO_BUS_CDF.replace("   1 BUS 1", "  10 BUS 1") \
                          .replace("   2 BUS 2", "  20 BUS 2") \
                          .replace("   1    2", "  10   20")
        case = pp.parse_cdf(text)
        assert [b.index for b in case.buses] == [1, 2]
        assert [b.external_id for b in case.buses] == [10, 20]
        assert case.branches[0].from_bus == 1
        assert case.branches[0].to_bus == 2

    def test_bundled_cases_all_parse(self, cases):
        sizes = {name: (c.n, c.m) for name, c in cases.items()}
        assert sizes == {
            "ieee9": (9, 9), "ieee14": (14, 20), "ieee30": (30, 41),
            "ieee39": (39, 46), "ieee57": (57, 80), "ieee118": (118, 186),
        }

    def test_checksum_recorded(self, ieee14):
        assert len(ieee14.source_checksum) == 64


class TestCsvFallback:
    def test_triangle(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert all(br.x == 1.0 and br.r == 0.0 for br in triangle.branches)

    def test_missing_branch_table(self):
        text = TRIANGLE_CSV.split("[branches]")[0]
        with pytest.raises(errors.MissingSection):
            pp.parse_csv_fallback(text)

    def test_unknown_bus_reference(self):
        text = TRIANGLE_CSV.replace("1,3,0.0,1.0", "1,99,0.0,1.0")
        with pytest.raises(errors.UnknownBusReference):
            pp.parse_csv_fallback(text)

    def test_disconnected_rejected(self):
        text = TRIANGLE_CSV.replace(
            "3,PQ", "3,PQ").replace(
            "2,3,0.0,1.0,0.0,1.0,0.0\n", "").replace(
            "1,3,0.0,1.0,0.0,1.0,0.0\n", "")
        with pytest.raises(errors.DisconnectedNetwork):
            pp.parse_csv_fallback(text)

    @pytest.mark.parametrize("old, new, line_no", [
        ("2,PQ,1.0,0.0,0,0", "2,PQ,1.0,0.0,nan,0", 8),
        ("2,3,0.0,1.0,0.0", "2,3,0.0,inf,0.0", 14),
        ("mva_base = 100.0", "mva_base = -inf", 3),
        ("mva_base = 100.0", "mva_base = NaN", 3),
        ("mva_base = 100.0", "mva_base = -100.0", 3)])
    def test_non_finite_rejected(self, old, new, line_no):
        text = TRIANGLE_CSV.replace(old, new)
        assert text != TRIANGLE_CSV
        with pytest.raises(errors.MalformedRecord) as exc:
            pp.parse_csv_fallback(text)
        assert exc.value.line_no == line_no

    def test_round_trip_identity(self, ieee14):
        text = pp.dumps_csv_fallback(ieee14)
        again = pp.parse_csv_fallback(text)
        assert again.buses == ieee14.buses
        assert again.branches == ieee14.branches
        assert again.mva_base == ieee14.mva_base
        assert again.name == ieee14.name


# Both readers hand their records to one assembler, which remaps the ids
# and checks every reference.
@pytest.mark.parametrize("fmt, old, new, error, message", [
    ("cdf", "   2 BUS 2", "   1 BUS 2", errors.DuplicateBusId,
     "TWO BUS MINIMAL: bus 1 appears twice"),
    ("cdf", "   1    2  1", "   1    3  1", errors.UnknownBusReference,
     "TWO BUS MINIMAL: line 7: branch references unknown bus 3"),
    ("csv", "2,PQ,", "1,PQ,", errors.DuplicateBusId,
     "triangle: bus 1 appears twice"),
    ("csv", "1,3,0.0", "1,99,0.0", errors.UnknownBusReference,
     "triangle: line 15: branch references unknown bus 99"),
    ("bundle", "2,PQ,", "1,PQ,", errors.DuplicateBusId,
     "triangle: bus 1 appears twice"),
    ("bundle", "1,3,0.0", "1,99,0.0", errors.UnknownBusReference,
     "triangle: branches.csv line 4: branch references unknown bus 99")],
    ids=[f"{fmt}-{fault}" for fmt in ("cdf", "csv", "bundle")
         for fault in ("duplicate", "unknown")])
def test_bus_reference_faults(tmp_path, fmt, old, new, error, message):
    base = TWO_BUS_CDF if fmt == "cdf" else TRIANGLE_CSV
    text = base.replace(old, new)
    assert text != base
    with pytest.raises(error) as exc:
        if fmt == "cdf":
            pp.parse_cdf(text)
        elif fmt == "csv":
            pp.parse_csv_fallback(text)
        else:
            pp.load_case(write_bundle(tmp_path / "bundle", text))
    assert str(exc.value) == message


# The two-bus CDF with its buses numbered 10 and 20 (internal 1 and 2).
TEN_TWENTY_CDF = TWO_BUS_CDF.replace("   1 BUS 1", "  10 BUS 1").replace(
    "   2 BUS 2", "  20 BUS 2").replace("   1    2  1", "  10   20  1")


@pytest.fixture(scope="module")
def tied_bundle(tmp_path_factory):
    """The tied 2x118 grid (seed 1) as a bundle; `branches.csv` line 200
    is the branch 1002-1012, whose internal ends are 120 and 130."""
    tied = load_tied()
    bundle = tmp_path_factory.mktemp("tied") / "ieee118x2-s1"
    tied.write_case(tied.tied_case(2, 1), bundle)
    assert (bundle / "branches.csv").read_text().splitlines()[199] \
        .startswith("1002,1012,")
    return bundle


# Each branch fault, made on a branch whose file ids are not its
# internal indices: in the tied bundle, cells of `branches.csv` line 200
# (from,to,r,x,b,tap,shift_deg by position); in the renumbered CDF, a
# text edit of the branch on line 7. The reader names the record's line
# and the file's ids; the Y-bus, which hand-built cases reach too,
# names the ids only.
BRANCH_FAULTS = {
    "self-loop": ({1: "1002"}, ("  10   20  1", "  10   10  1"),
                  True, "is a self-loop"),
    "negative-x": ({3: "-0.0616"}, ("    0.50000", "   -0.50000"), True,
                   "has negative series reactance -"),
    "zero-impedance": ({2: "0.0", 3: "0.0"}, ("    0.50000", "    0.00000"),
                       True, "has zero impedance"),
    "negative-tap": ({5: "-1.0"}, ("0.0000    0.00", "-1.000    0.00"),
                     True, "has negative tap ratio -1.0; a phase shift "
                     "belongs in shift_deg"),
    "huge-tap": ({5: "1e200"}, ("0.0000    0.00", " 1e200    0.00"),
                 False, "has tap ratio 1e+200, too large"),
    "tiny-x": ({2: "0.0", 3: "1e-320"}, ("    0.50000", "     1e-320"),
               False, "has a non-finite admittance (r 0.0, x 1e-320"),
}


@pytest.mark.parametrize("fault", BRANCH_FAULTS)
def test_branch_fault_names_the_file_line_and_ids(tmp_path, capsys,
                                                  tied_bundle, fault):
    cells, _, in_reader, detail = BRANCH_FAULTS[fault]
    bundle = tmp_path / "ieee118x2-s1"
    shutil.copytree(tied_bundle, bundle)
    lines = (bundle / "branches.csv").read_text().splitlines()
    row = lines[199].split(",")
    for col, value in cells.items():
        row[col] = value
    lines[199] = ",".join(row)
    (bundle / "branches.csv").write_text("\n".join(lines) + "\n")
    ends = "1002-1002" if fault == "self-loop" else "1002-1012"
    where = "branches.csv line 200: " if in_reader else ""
    with pytest.raises(errors.InvalidBranch) as exc:
        pp.build_ybus(pp.load_case(bundle))
    message = str(exc.value)
    assert message.startswith(f"ieee118x2-s1: {where}branch {ends} {detail}")
    assert not re.search(r"\b(120|130)\b", message)
    assert cli.main(["--case", str(bundle), "--mode", "count"]) == 5
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fault", BRANCH_FAULTS)
def test_cdf_branch_fault_names_the_line_and_ids(tmp_path, capsys, fault):
    _, (old, new), in_reader, detail = BRANCH_FAULTS[fault]
    lines = TEN_TWENTY_CDF.splitlines(keepends=True)
    assert old in lines[6]
    lines[6] = lines[6].replace(old, new)
    path = _cdf_file(tmp_path, "".join(lines))
    ends = "10-10" if fault == "self-loop" else "10-20"
    where = "line 7: " if in_reader else ""
    with pytest.raises(errors.InvalidBranch) as exc:
        pp.build_ybus(pp.load_case(path))
    message = str(exc.value)
    assert message.startswith(f"case: {where}branch {ends} {detail}")
    assert cli.main(["--case", str(path), "--mode", "count"]) == 5
    assert capsys.readouterr().err == f"error: {message}\n"


# A read case is checked once: each record's `fault` is read once, when
# the case is made.
def test_each_record_is_checked_once(monkeypatch, tied_bundle):
    reads = Counter()
    for kind in (pp.Bus, pp.Branch):
        def counted(record, rule=kind.fault.fget):
            reads[id(record)] += 1
            return rule(record)
        monkeypatch.setattr(kind, "fault", property(counted))
    case = pp.load_case(tied_bundle)
    assert (case.n, case.m) == (236, 373)
    assert reads == Counter(id(r) for r in (*case.buses, *case.branches))


# A tap of zero, either sign, reads as 1 in both readers; only a
# negative one is refused (`test_rejected_case_file`).
def test_zero_tap_reads_as_one():
    for zero in ("0.0", "-0.0"):
        text = TRIANGLE_CSV.replace("1,2,0.0,1.0,0.0,1.0",
                                    f"1,2,0.0,1.0,0.0,{zero}")
        assert pp.parse_csv_fallback(text).branches[0].tap_ratio == 1.0
    assert pp.parse_cdf(TWO_BUS_CDF).branches[0].tap_ratio == 1.0


# Faults are reported table by table: a fault of the bus table, or of
# the bus or slack count, comes before any fault of a branch.
@pytest.mark.parametrize("bus_fault, branch_fault, error", [
    (("2,PQ,", "2,slack,"), ("2,3,0.0,1.0", "2,2,0.0,1.0"),
     errors.DuplicateSlack),
    (("1,slack,", "1,PQ,"), ("1,3,0.0", "1,99,0.0"), errors.MissingSlack),
    (("2,PQ,1.0", "2,PV,0.0"), ("1,3,0.0,1.0", "1,3,0.0,-1.0"),
     errors.CaseError)],
    ids=["two-slacks", "no-slack", "zero-voltage-pv"])
def test_bus_table_fault_before_branch_fault(bus_fault, branch_fault, error):
    text = TRIANGLE_CSV
    for old, new in (bus_fault, branch_fault):
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(errors.CaseError) as exc:
        pp.parse_csv_fallback(text)
    assert type(exc.value) is error


# A section given twice is refused at the repeated header: reading on
# would drop the rows before it (IEEE-14 would lose a branch).
@pytest.mark.parametrize("section", ["case", "buses", "branches"])
def test_repeated_section_rejected(ieee14, section):
    lines = pp.dumps_csv_fallback(ieee14).splitlines()
    at = lines.index(f"[{section}]") + 3
    lines.insert(at, f"[{section}]")
    with pytest.raises(errors.MalformedRecord) as exc:
        pp.parse_csv_fallback("\n".join(lines))
    assert str(exc.value) == (f"line {at + 1}: section [{section}] is "
                              "given twice")


# A bundle file is a plain table with no section headers: a header line
# in it is one more record of that table, refused at its file and line.
@pytest.mark.parametrize("member, section", [
    ("buses.csv", "branches"), ("branches.csv", "case"),
    ("buses.csv", "buses")])
def test_bundle_section_given_twice_rejected(tmp_path, member, section):
    bundle = write_bundle(tmp_path / "bundle", TRIANGLE_CSV)
    body = TRIANGLE_CSV.split(f"[{section}]\n", 1)[1].split("\n\n", 1)[0]
    path = bundle / member
    line_no = len(path.read_text().splitlines()) + 1
    path.write_text(path.read_text() + f"[{section}]\n{body}\n")
    with pytest.raises(errors.MalformedRecord) as exc:
        pp.load_case(bundle)
    n_cols = 10 if member == "buses.csv" else 7
    assert str(exc.value) == (f"{member} line {line_no}: expected {n_cols} "
                              "columns, got 1")


# A document opens only [case], [buses] and [branches], and its case
# table takes `name` and `mva_base`, each once. Any other header or key
# is refused at its line: read on, a header would take the rows after
# it, a misspelt key would leave the default base and a second name
# would replace the first. A stated name may not be empty.
@pytest.mark.parametrize("old, new, message", [
    ("[branches]", "[note]\n[branches]",
     "line 11: section [note] is unknown"),
    ("[branches]", "[branch]", "line 11: section [branch] is unknown"),
    ("mva_base = 100.0", "mva_bsae = 50.0",
     "line 3: key 'mva_bsae' is unknown"),
    ("mva_base = 100.0", "mva_base = 100.0\nname = other",
     "line 4: key 'name' is given twice"),
    ("name = triangle", "name =", "line 2: name is empty"),
    ("name = triangle", 'name = ""', "line 2: name is empty"),
    ("name = triangle", 'name = "  "', "line 2: name is empty")],
    ids=["unknown-section", "misspelt-section", "unknown-key",
         "repeated-key", "empty-name", "empty-quoted-name",
         "blank-quoted-name"])
def test_document_line_outside_the_grammar_rejected(old, new, message):
    text = TRIANGLE_CSV.replace(old, new)
    assert text != TRIANGLE_CSV
    with pytest.raises(errors.MalformedRecord) as exc:
        pp.parse_csv_fallback(text)
    assert str(exc.value) == message


# Each table is read line by line, case, buses, then branches, so the
# first unreadable line is reported (exit 4) before any fault of the
# model the lines describe (exit 5 or 6).
@pytest.mark.parametrize("faults, message", [
    ((("2,PQ,1.0,0.0,0,0", "2,PQ,1.0,0.0,nan,0"),
      ("2,3,0.0,1.0,0.0,1.0,0.0", "2,3,0.0,1.0,0.0,1.0")),
     "line 8: bad bus record "
     "['2', 'PQ', '1.0', '0.0', 'nan', '0', '0', '0', '0', '0']"),
    ((("2,PQ,", "1,PQ,"), ("3,PQ,1.0,0.0,0,", "3,PQ,1.0,0.0,x,")),
     "line 9: bad bus record "
     "['3', 'PQ', '1.0', '0.0', 'x', '0', '0', '0', '0', '0']")],
    ids=["bus-before-branch", "unreadable-before-duplicate"])
def test_first_unreadable_line_is_reported(faults, message):
    text = TRIANGLE_CSV
    for old, new in faults:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(errors.MalformedRecord) as exc:
        pp.parse_csv_fallback(text)
    assert str(exc.value) == message
    assert exc.value.exit_code == 4


def _union_find_connected(n, pairs):
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(1, n + 1)}) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_connectivity_matches_union_find(data):
    n = data.draw(st.integers(2, 8))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=2 * n))
    lines = ["[case]", "name = fuzz", "mva_base = 100", "", "[buses]",
             "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs"]
    for i in range(1, n + 1):
        kind = "slack" if i == 1 else "PQ"
        lines.append(f"{i},{kind},1.0,0,0,0,0,0,0,0")
    lines += ["", "[branches]", "from,to,r,x,b,tap,shift_deg"]
    for i, j in pairs:
        lines.append(f"{i},{j},0.0,1.0,0.0,1.0,0.0")
    text = "\n".join(lines)

    connected = _union_find_connected(n, pairs)
    if connected:
        case = pp.parse_csv_fallback(text)
        assert case.n == n
    else:
        with pytest.raises(errors.DisconnectedNetwork):
            pp.parse_csv_fallback(text)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_csv_round_trip_random_cases(data):
    n = data.draw(st.integers(2, 6))
    finite = st.floats(min_value=-10, max_value=10,
                       allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.01, max_value=10,
                         allow_nan=False, allow_infinity=False)
    lines = ["[case]", "name = fuzz", "mva_base = 100", "", "[buses]",
             "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs"]
    for i in range(1, n + 1):
        kind = "slack" if i == 1 else data.draw(st.sampled_from(["PQ", "PV"]))
        vals = [data.draw(positive)] + [data.draw(finite) for _ in range(7)]
        lines.append(f"{i},{kind}," + ",".join(repr(v) for v in vals))
    lines += ["", "[branches]", "from,to,r,x,b,tap,shift_deg"]
    for i in range(2, n + 1):
        j = data.draw(st.integers(1, i - 1))
        lines.append(f"{j},{i},{data.draw(positive)!r},"
                     f"{data.draw(positive)!r},{data.draw(finite)!r},"
                     f"{data.draw(positive)!r},{data.draw(finite)!r}")
    case = pp.parse_csv_fallback("\n".join(lines))
    again = pp.parse_csv_fallback(pp.dumps_csv_fallback(case))
    assert again.buses == case.buses
    assert again.branches == case.branches


def test_external_internal_bijection(cases):
    for case in cases.values():
        externals = [b.external_id for b in case.buses]
        assert len(set(externals)) == case.n
        internals = [b.index for b in case.buses]
        assert internals == list(range(1, case.n + 1))
        assert all(case.external_ids[b.index] == b.external_id
                   for b in case.buses)


def test_load_case_directory(tmp_path, ieee9):
    text = pp.dumps_csv_fallback(ieee9)
    parts = {}
    current = None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
            parts[current] = []
        elif current:
            parts[current].append(line)
    d = tmp_path / "case9csv"
    d.mkdir()
    (d / "case.toml").write_text("\n".join(parts["case"]) + "\n")
    (d / "buses.csv").write_text("\n".join(parts["buses"]).strip() + "\n")
    (d / "branches.csv").write_text("\n".join(parts["branches"]).strip() + "\n")
    case = pp.load_case(d)
    assert case.buses == ieee9.buses
    assert case.branches == ieee9.branches


def test_unnamed_bundle_takes_directory_name(tmp_path, ieee9):
    text = pp.dumps_csv_fallback(ieee9)
    case_meta, buses, branches = (part.split("\n", 1)[1].strip() + "\n"
                                  for part in text.split("\n\n"))
    d = tmp_path / "unnamed9"
    d.mkdir()
    (d / "case.toml").write_text(
        "".join(line + "\n" for line in case_meta.splitlines()
                if not line.startswith("name")))
    (d / "buses.csv").write_text(buses)
    (d / "branches.csv").write_text(branches)
    case = pp.load_case(d)
    named = pp.parse_csv_fallback(text)
    assert case.name == "unnamed9"
    assert (case.mva_base, case.buses, case.branches, case.external_ids) == \
        (named.mva_base, named.buses, named.branches, named.external_ids)


# The line of the first byte that is not UTF-8, counted as the readers
# count lines: a byte right after a line break starts the next line.
@pytest.mark.parametrize("prefix, line_no", [
    (b"", 1), (b"x", 1), (b"a\nb\n", 3), (b"a\r\nb", 2), (b"a\rb\r", 3),
    (b"\xc3\xa9\n", 2)])
def test_non_utf8_byte_is_malformed_record(tmp_path, prefix, line_no):
    path = tmp_path / "case.txt"
    path.write_bytes(prefix + b"\xff\n" + TWO_BUS_CDF.encode())
    with pytest.raises(errors.MalformedRecord) as exc:
        pp.load_case(path)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: byte 0xff is not UTF-8"


def test_crlf_case_file_reads_as_lf(tmp_path):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(TWO_BUS_CDF.encode())
    crlf.write_bytes(TWO_BUS_CDF.replace("\n", "\r\n").encode())
    a, b = pp.load_case(lf), pp.load_case(crlf)
    assert (a.name, a.buses, a.branches, a.source_checksum) == \
        ("lf", b.buses, b.branches, b.source_checksum)


# A leading byte-order mark, as Excel's "CSV UTF-8" writes one, is not
# content: each reader reads the file as if it had none.
def test_bundle_with_byte_order_marks_loads_as_without(tmp_path, ieee9):
    text = pp.dumps_csv_fallback(ieee9)
    plain = write_bundle(tmp_path / "plain", text)
    marked = write_bundle(tmp_path / "marked", text)
    for member in marked.iterdir():
        member.write_bytes(codecs.BOM_UTF8 + member.read_bytes())
    assert pp.load_case(marked) == pp.load_case(plain)


def test_cdf_with_byte_order_mark_reads_as_without(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(TWO_BUS_CDF.encode())
    marked.write_bytes(codecs.BOM_UTF8 + TWO_BUS_CDF.encode())
    a, b = pp.load_case(plain), pp.load_case(marked)
    assert (a.buses, a.branches, a.source_checksum) == \
        (b.buses, b.branches, b.source_checksum)
    # A byte that is not UTF-8 is still reported on its own line.
    marked.write_bytes(codecs.BOM_UTF8 + b"a\nb\n\xff\n")
    with pytest.raises(errors.MalformedRecord,
                       match=r"^line 3: byte 0xff is not UTF-8$"):
        pp.load_case(marked)


def test_external_id_refuses_an_index_outside_the_case(two_bus):
    assert [two_bus.external_id(i) for i in (1, 2)] == [
        b.external_id for b in two_bus.buses]
    for internal in (0, -1, 3):
        with pytest.raises(IndexError, match=r"outside 1\.\.2$"):
            two_bus.external_id(internal)


# A bool is not read as bus 0 or 1; numpy integers are indices.
def test_external_id_refuses_an_index_that_is_not_an_integer(two_bus):
    assert two_bus.external_id(np.int64(2)) == two_bus.buses[1].external_id
    for internal in (True, False, 1.5, 1.0, "1", None):
        with pytest.raises(TypeError, match=f"index {internal!r} is not"):
            two_bus.external_id(internal)


# A bus's index is its 1-based position: any other would move its
# shunt onto another bus of the Y-bus (IEEE-14's bus 9 at index 10) or
# name another bus the slack (IEEE-9's bus 1 at index 2).
@pytest.mark.parametrize("name, position, index", [
    ("ieee14", 9, 10), ("ieee9", 1, 2), ("ieee9", 9, 0), ("ieee9", 1, 1.0),
    ("ieee9", 1, True)])
def test_bus_index_is_its_position(cases, name, position, index):
    case = cases[name]
    buses = list(case.buses)
    buses[position - 1] = replace(buses[position - 1], index=index)
    with pytest.raises(errors.CaseError) as exc:
        replace(case, buses=tuple(buses))
    assert type(exc.value) is errors.CaseError
    assert str(exc.value) == (f"{name}: buses[{position - 1}] has index "
                              f"{index}, not its position {position}")
    assert exc.value.exit_code == 5


def _bus_edit(position, **fields):
    """The `replace` fields that give IEEE-9's bus `position` `fields`."""
    def edit(case):
        buses = list(case.buses)
        buses[position - 1] = replace(buses[position - 1], **fields)
        return {"buses": tuple(buses)}
    return edit


def _first_branch_edit(**fields):
    """The `replace` fields that give IEEE-9's first branch, 1-4,
    `fields`."""
    def edit(case):
        return {"branches": (replace(case.branches[0], **fields),
                             *case.branches[1:])}
    return edit


# The readers' model rules hold for a hand-built case too: IEEE-9 with
# one edit each is refused when it is made, with the error, message and
# exit code a case file with the same fault gets (its first branch is
# 1-4, the only one at bus 1). A record holds no check of its own, so
# a bus of unknown type is made and its case refused. The readers
# refuse nan and inf in every field, read only integer bus ids and
# numbers, and read a case name as one nonblank line and a base as a
# number that is not negative. A zero tap, which they read as 1, is
# refused as the Y-bus refuses it; a number that a float does not hold
# exactly would not read back from the case's dump.
@pytest.mark.parametrize("edit, error, message, code", [
    (_bus_edit(2, bus_type=pp.cases.SLACK), errors.DuplicateSlack,
     "ieee9: 2 slack buses, expected 1", 5),
    (_bus_edit(1, bus_type=pp.cases.PV), errors.MissingSlack,
     "ieee9: no slack bus", 5),
    (_bus_edit(2, external_id=1), errors.DuplicateBusId,
     "ieee9: bus 1 appears twice", 5),
    (lambda case: {"buses": case.buses[:1]}, errors.MissingSection,
     "ieee9: a case needs at least 2 buses, got 1", 4),
    (lambda case: {"branches": ()}, errors.MissingSection,
     "ieee9: a case needs at least 1 branch", 4),
    (lambda case: {"branches": case.branches[1:]}, errors.DisconnectedNetwork,
     "ieee9: branch graph is not connected", 6),
    (_bus_edit(2, bus_type="PQX"), errors.CaseError,
     "ieee9: bus 2: unknown bus type 'PQX'", 5),
    (_bus_edit(5, v_ang_deg=math.nan), errors.CaseError,
     "ieee9: bus 5: non-finite v_ang_deg nan", 5),
    (_bus_edit(2, v_mag=math.nan), errors.CaseError,
     "ieee9: bus 2: non-finite v_mag nan", 5),
    (_bus_edit(7, p_load=-math.inf), errors.CaseError,
     "ieee9: bus 7: non-finite p_load -inf", 5),
    (_first_branch_edit(x=math.inf), errors.InvalidBranch,
     "ieee9: branch 1-4 has a non-finite x inf", 5),
    (_first_branch_edit(b_charging=math.nan), errors.InvalidBranch,
     "ieee9: branch 1-4 has a non-finite b_charging nan", 5),
    (_bus_edit(2, external_id=2.0), errors.CaseError,
     "ieee9: buses[1] has external id 2.0, not an integer", 5),
    (_bus_edit(2, external_id="2"), errors.CaseError,
     "ieee9: buses[1] has external id '2', not an integer", 5),
    (_bus_edit(2, external_id=True), errors.CaseError,
     "ieee9: buses[1] has external id True, not an integer", 5),
    (lambda case: {"name": ""}, errors.CaseError,
     "case name '' is blank", 5),
    (lambda case: {"name": "  "}, errors.CaseError,
     "case name '  ' is blank", 5),
    (lambda case: {"name": "a\nb"}, errors.CaseError,
     "case name 'a\\nb' is not one line", 5),
    (lambda case: {"name": "a\u2028b"}, errors.CaseError,
     "case name 'a\\u2028b' is not one line", 5),
    (lambda case: {"name": 5}, errors.CaseError,
     "case name 5 is not a str", 5),
    (lambda case: {"mva_base": -100.0}, errors.CaseError,
     "ieee9: mva_base -100.0 is negative", 5),
    (lambda case: {"mva_base": math.nan}, errors.CaseError,
     "ieee9: mva_base nan is not a finite number", 5),
    (lambda case: {"mva_base": True}, errors.CaseError,
     "ieee9: mva_base True is not a real number", 5),
    (lambda case: {"mva_base": "100"}, errors.CaseError,
     "ieee9: mva_base '100' is not a real number", 5),
    (_first_branch_edit(tap_ratio=0.0), errors.InvalidBranch,
     "ieee9: branch 1-4 has tap ratio 0.0, too close to zero", 5),
    (_bus_edit(5, p_load="0.9"), errors.CaseError,
     "ieee9: bus 5: p_load '0.9' is not a real number", 5),
    (_bus_edit(5, p_load=None), errors.CaseError,
     "ieee9: bus 5: p_load None is not a real number", 5),
    (_bus_edit(5, q_load=True), errors.CaseError,
     "ieee9: bus 5: q_load True is not a real number", 5),
    (_bus_edit(5, p_load=Fraction(1, 3)), errors.CaseError,
     "ieee9: bus 5: p_load Fraction(1, 3) is not exactly a float", 5),
    (_bus_edit(5, p_load=2**53 + 1), errors.CaseError,
     "ieee9: bus 5: p_load 9007199254740993 is not exactly a float", 5),
    (_first_branch_edit(x="0.1"), errors.InvalidBranch,
     "ieee9: branch 1-4 has x '0.1', which is not a real number", 5),
    (_first_branch_edit(r=1j), errors.InvalidBranch,
     "ieee9: branch 1-4 has r 1j, which is not a real number", 5)],
    ids=["two-slacks", "no-slack", "repeated-id", "one-bus", "no-branch",
         "without-branch-1-4", "unknown-type", "nan-angle",
         "nan-pv-voltage", "inf-load", "inf-reactance", "nan-charging",
         "float-id", "str-id", "bool-id", "empty-name", "blank-name",
         "two-line-name", "separator-name", "int-name", "negative-base",
         "nan-base", "bool-base", "str-base", "zero-tap", "str-load",
         "none-load", "bool-load", "fraction-load", "inexact-int-load",
         "str-reactance", "complex-resistance"])
def test_hand_built_case_refused_as_the_readers_refuse(ieee9, edit, error,
                                                       message, code):
    fields = edit(ieee9)
    for make in (lambda: replace(ieee9, **fields),
                 lambda: pp.PowerCase(
                     fields.get("name", ieee9.name),
                     fields.get("mva_base", ieee9.mva_base),
                     fields.get("buses", ieee9.buses),
                     fields.get("branches", ieee9.branches))):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert exc.value.exit_code == code


# The external ids are the buses' own: a case made with new ones
# reports them, whatever mapping is passed with them.
def test_external_ids_follow_the_buses(ieee9):
    case = replace(ieee9, **_bus_edit(1, external_id=99)(ieee9),
                   external_ids={1: 1})
    assert case.external_ids[1] == 99 == case.external_id(1)
    assert case.external_ids == {b.index: b.external_id for b in case.buses}


# The writer writes each number as its float, so numpy scalars and ints
# read back equal, and dump the bytes of the floats they equal.
def test_numpy_numbers_read_back_from_the_dump(ieee9):
    branches = (replace(ieee9.branches[0], x=np.float32(0.5), tap_ratio=1),
                *ieee9.branches[1:])
    floats = replace(ieee9, branches=(replace(
        branches[0], x=0.5, tap_ratio=1.0), *branches[1:]))
    case = replace(ieee9, mva_base=np.float64(100.0), branches=branches,
                   buses=tuple(replace(b, p_load=np.float64(b.p_load))
                               for b in ieee9.buses))
    text = pp.dumps_csv_fallback(case)
    assert text == pp.dumps_csv_fallback(floats)
    assert replace(pp.parse_csv_fallback(text),
                   source_checksum=case.source_checksum) == case


# A CDF file takes its stem as the case name, which the name rule
# refuses when it is blank.
def test_blank_file_stem_refused(tmp_path):
    path = tmp_path / "  .txt"
    path.write_text(TWO_BUS_CDF)
    with pytest.raises(errors.CaseError, match="^case name '  ' is blank$"):
        pp.load_case(path)
    assert cli.main(["--case", str(path), "--mode", "count"]) == 5


def test_numpy_integer_bus_index_accepted(ieee9):
    buses = tuple(replace(b, index=np.int64(b.index)) for b in ieee9.buses)
    assert replace(ieee9, buses=buses).slack_index == 1


def test_csv_content_before_first_section_rejected():
    with pytest.raises(errors.MalformedRecord) as exc:
        pp.parse_csv_fallback("name = triangle\n" + TRIANGLE_CSV)
    assert str(exc.value) == "line 1: content before the first section"


def _cdf_file(tmp_path, text):
    path = tmp_path / "case.txt"
    path.write_text(text)
    return path


def _one_bus_cdf(tmp_path):
    """The two-bus case without bus 2, its branch a loop at bus 1."""
    lines = TWO_BUS_CDF.replace("   1    2  1", "   1    1  1").splitlines(
        keepends=True)
    del lines[3]
    return _cdf_file(tmp_path, "".join(lines))


def _bundle(tmp_path, old, new):
    text = TRIANGLE_CSV.replace(old, new)
    assert text != TRIANGLE_CSV
    return write_bundle(tmp_path / "bundle", text)


def _without_branches_csv(tmp_path):
    bundle = write_bundle(tmp_path / "bundle", TRIANGLE_CSV)
    (bundle / "branches.csv").unlink()
    return bundle


# Each case file the readers refuse, its error and message, and the
# exit code README gives that error.
@pytest.mark.parametrize("make, error, message, code", [
    (lambda tmp: _cdf_file(tmp, ""), errors.MissingSection,
     "empty case file", 4),
    (_one_bus_cdf, errors.MissingSection, "case: a case needs at least 2 buses, got 1", 4),
    (lambda tmp: _cdf_file(tmp, TWO_BUS_CDF.replace(" 100.0 2026",
                                                    "   0.0 2026")),
     errors.MalformedRecord, "line 1: columns 32-37: MVA base 0.0 is zero",
     4),
    (lambda tmp: _cdf_file(tmp, TWO_BUS_CDF.replace(" 100.0 2026",
                                                    "  -0.0 2026")),
     errors.MalformedRecord, "line 1: columns 32-37: MVA base -0.0 is zero",
     4),
    (lambda tmp: write_bundle(tmp / "bundle",
                              TRIANGLE_CSV.split("1,2,0.0")[0]),
     errors.MissingSection, "triangle: a case needs at least 1 branch", 4),
    (lambda tmp: _bundle(tmp, "2,3,0.0,1.0", "2,2,0.0,1.0"),
     errors.InvalidBranch,
     "triangle: branches.csv line 3: branch 2-2 is a self-loop", 5),
    (lambda tmp: _bundle(tmp, "1,2,0.0,1.0,0.0,1.0", "1,2,0.0,1.0,0.0,-1.0"),
     errors.InvalidBranch, "triangle: branches.csv line 2: branch 1-2 has "
     "negative tap ratio -1.0; a phase shift belongs in shift_deg", 5),
    (lambda tmp: _bundle(tmp, "name = triangle", "name triangle"),
     errors.MalformedRecord,
     "case.toml line 1: expected key = value, got 'name triangle'", 4),
    (lambda tmp: _bundle(tmp, "id,type,", "id,kind,"), errors.MalformedRecord,
     "buses.csv line 1: expected header "
     "'id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs'", 4),
    (lambda tmp: _bundle(tmp, "3,PQ,1.0,0.0,0,", "3,PQ,1.0,0,"),
     errors.MalformedRecord, "buses.csv line 4: expected 10 columns, got 9",
     4),
    (_without_branches_csv, errors.MissingSection, "{}: missing branches.csv",
     4),
    (lambda tmp: _bundle(tmp, "1,slack,1.0,0.0,0,0,0,0,0,0\n",
                         "1,slack,1.0,0.0,0,0,0,0,0,0\n[note]\n"),
     errors.MalformedRecord, "buses.csv line 3: expected 10 columns, got 1",
     4),
    (lambda tmp: _bundle(tmp, "mva_base = 100.0", "mva_bsae = 50.0"),
     errors.MalformedRecord, "case.toml line 2: key 'mva_bsae' is unknown",
     4),
    (lambda tmp: _bundle(tmp, "mva_base = 100.0",
                         "mva_base = 100.0\nname = other"),
     errors.MalformedRecord, "case.toml line 3: key 'name' is given twice",
     4),
    (lambda tmp: _bundle(tmp, "name = triangle", "name ="),
     errors.MalformedRecord, "case.toml line 1: name is empty", 4),
    (lambda tmp: _bundle(tmp, "name = triangle", 'name = "  "'),
     errors.MalformedRecord, "case.toml line 1: name is empty", 4)],
    ids=["empty-cdf", "one-bus", "cdf-zero-base", "cdf-minus-zero-base",
         "header-only-branches", "self-loop", "negative-tap",
         "case-line-without-equals", "wrong-header", "wrong-column-count",
         "bundle-missing-file", "bundle-section-header", "bundle-unknown-key",
         "bundle-repeated-key", "bundle-empty-name", "bundle-blank-name"])
def test_rejected_case_file(tmp_path, capsys, make, error, message, code):
    path = make(tmp_path)
    message = message.format(path)
    with pytest.raises(error) as exc:
        pp.load_case(path)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert cli.main(["--case", str(path), "--mode", "count"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cdf_skips_blank_lines_and_trailing_sections(ieee14):
    text = (Path(pp.__file__).parent / "data" / "ieee14.txt").read_text()
    lines = text.splitlines(keepends=True)
    bus_data = next(i for i, line in enumerate(lines)
                    if line.startswith("BUS DATA"))
    lines.insert(bus_data + 2, "\n")
    lines.insert(-2, "   \n")
    lines[-1:] = [
        "LOSS ZONES FOLLOWS                     1 ITEMS\n",
        "  1 IEEE 14 BUS\n", "-99\n",
        "INTERCHANGE DATA FOLLOWS                 1 ITEMS\n",
        " 1    2 Bus 2     HV    0.0  999.99  IEEE14  IEEE 14 Bus Test Case\n",
        "-9\n", "TIE LINES FOLLOWS                     0 ITEMS\n", "-999\n",
        "END OF DATA\n"]
    case = pp.parse_cdf("".join(lines), name="ieee14")
    assert (case.n, case.m) == (14, 20)
    assert (case.buses, case.branches) == (ieee14.buses, ieee14.branches)


# A case table that states no name leaves the reader's own, `case` for
# a document; a stated name is kept, `case` in a bundle too.
def test_case_name_falls_back_only_where_none_is_stated(tmp_path):
    unnamed = TRIANGLE_CSV.replace("name = triangle\n", "")
    assert pp.parse_csv_fallback(unnamed).name == "case"
    named = TRIANGLE_CSV.replace("name = triangle", "name = case")
    assert pp.load_case(write_bundle(tmp_path / "named", named)).name \
        == "case"


# The writer encloses the name in one pair of quotes and the reader
# removes exactly that pair, so quotes and spaces inside a name survive.
@pytest.mark.parametrize("name", ['"quoted"', 'a"', '"', ' x '])
def test_quoted_name_round_trips(tmp_path, name):
    text = pp.dumps_csv_fallback(pp.parse_cdf(TWO_BUS_CDF, name=name))
    assert pp.parse_csv_fallback(text).name == name
    assert pp.load_case(write_bundle(tmp_path / "bundle", text)).name == name


# Only a blank CDF voltage field reads as 1.0 p.u.; a stated zero on a
# PV bus is refused by both readers alike.
@pytest.mark.parametrize("fmt", ["cdf", "bundle"])
def test_stated_zero_voltage_on_a_pv_bus_rejected(tmp_path, capsys, ieee14,
                                                  fmt):
    if fmt == "cdf":
        lines = (Path(pp.__file__).parent / "data" / "ieee14.txt"
                 ).read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("   2 BUS 2"))
        assert lines[at][27:33] == "1.0450"
        lines[at] = lines[at][:27] + " 0.000" + lines[at][33:]
        path = tmp_path / "ieee14.txt"
        path.write_text("".join(lines))
    else:
        text = pp.dumps_csv_fallback(ieee14)
        assert "\n2,PV,1.045," in text
        path = write_bundle(tmp_path / "bundle",
                            text.replace("\n2,PV,1.045,", "\n2,PV,0.0,"))
    message = "ieee14: bus 2: regulated bus with non-positive voltage 0.0"
    with pytest.raises(errors.CaseError, match=f"^{message}$"):
        pp.load_case(path)
    assert cli.main(["--case", str(path), "--mode", "count"]) == 5
    assert capsys.readouterr().err == f"error: {message}\n"


# A phase-shifting transformer 1-2 (tap 1.05 at 30 degrees) and a line
# 2-3, as a CSV document and as CDF text (tap in columns 77-82, shift in
# columns 84-90).
SHIFTED_CSV = TRIANGLE_CSV.replace("name = triangle", "name = shifted").split(
    "[branches]")[0] + """\
[branches]
from,to,r,x,b,tap,shift_deg
1,2,0.01,0.1,0.02,1.05,30
2,3,0.0,0.5,0.0,1.0,0.0
"""

SHIFTED_CDF = (
    " 08/08/26 PMUPLACE ARCHIVE      100.0 2026 S SHIFTED\n"
    "BUS DATA FOLLOWS                            3 ITEMS\n"
    + "".join(f"   {i} BUS {i}         1  1  {code} 1.0000   0.00     0.00"
              "      0.00    0.00    0.00    0.00 1.000    0.00    0.00"
              "  0.0000  0.0000    0\n" for i, code in ((1, 3), (2, 0), (3, 0)))
    + "-999\n"
    "BRANCH DATA FOLLOWS                         2 ITEMS\n"
    "   1    2  1  1  10   0.01000    0.10000   0.02000     0     0"
    "     0   0 0  1.0500   30.00\n"
    "   2    3  1  1  10   0.00000    0.50000   0.00000     0     0"
    "     0   0 0  0.0000    0.00\n"
    "-999\n"
    "END OF DATA\n"
)


def test_phase_shift_enters_the_ybus_as_a_complex_tap():
    case = pp.parse_csv_fallback(SHIFTED_CSV)
    assert case.branches[0].shift_deg == 30.0
    y = pp.build_ybus(case)
    t = cmath.rect(1.05, math.radians(30))
    y_series = 1 / complex(0.01, 0.1)
    y_shunt = 0.5j * 0.02
    assert y[0, 0] == pytest.approx((y_series + y_shunt) / abs(t) ** 2,
                                    rel=1e-14)
    assert y[0, 1] == pytest.approx(-y_series / t.conjugate(), rel=1e-14)
    assert y[1, 0] == pytest.approx(-y_series / t, rel=1e-14)
    assert y[1, 1] == pytest.approx(y_series + y_shunt + 1 / 0.5j, rel=1e-14)
    assert y[0, 2] == y[2, 0] == 0


def test_cdf_phase_shift_reads_as_the_csv_one():
    cdf = pp.parse_cdf(SHIFTED_CDF)
    csv = pp.parse_csv_fallback(SHIFTED_CSV)
    assert cdf.branches == csv.branches
    assert pp.build_ybus(cdf).tobytes() == pp.build_ybus(csv).tobytes()


# The model holds each angle as the file states it, so the writer gives
# the file's own digits back.
def test_dump_writes_angles_as_stated():
    text = pp.dumps_csv_fallback(pp.load_bundled_case("ieee57"))
    assert "\n4,PQ,0.981,-7.32,0.0," in text
