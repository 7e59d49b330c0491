"""Case model and reader tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace import errors
from conftest import TRIANGLE_CSV, TWO_BUS_CDF, TWO_SLACK_CDF, write_bundle


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
        assert bus9.v_ang == pytest.approx(math.radians(-14.94))
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
