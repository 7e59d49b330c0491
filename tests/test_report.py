"""Average-distance diagnostics and report emission tests."""

import json
import os
import stat
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace import report
from pmuplace.errors import ReportError
from pmuplace.network import BinaryAdjacency
from pmuplace.pipeline import RunConfig, run_structure


def adj(bits):
    return BinaryAdjacency(bits)


class TestAverageProfile:
    def test_all_ones(self):
        profile = pp.average_profile(adj(np.ones((3, 3), dtype=np.int8)))
        assert profile.sums == (3,) * 3
        assert all(type(s) is int for s in profile.sums)
        assert profile.floats == [1.5] * 3
        assert profile.argmins == (1, 2, 3)

    def test_identity(self):
        profile = pp.average_profile(adj(np.eye(4, dtype=np.int8)))
        assert profile.sums == (1,) * 4
        assert profile.lam_min == 1 / 3

    def test_exact_rational_ties(self):
        bits = np.eye(5, dtype=np.int8)
        bits[0, 1] = bits[1, 0] = 1
        profile = pp.average_profile(adj(bits))
        assert profile.argmins == (3, 4, 5)
        assert profile.sums == (2, 2, 1, 1, 1)
        assert profile.lam_min == 0.25
        assert profile.above_minimum((1, 3)) == (1,)

    def test_bounds(self, cases):
        for case in cases.values():
            profile = pp.average_profile(pp.topological_adjacency(case))
            assert all(1 <= s <= case.n for s in profile.sums)

    # s / (N-1) and float(Fraction(s, N-1)) are both correctly rounded.
    def test_float_emission_matches_rationals(self, cases):
        for case in cases.values():
            profile = pp.average_profile(pp.topological_adjacency(case))
            assert profile.floats == [float(Fraction(s, case.n - 1))
                                      for s in profile.sums]


class TestPatternCheck:
    def test_identity_trivially_at_minimum(self):
        a = adj(np.eye(3, dtype=np.int8))
        profile = pp.average_profile(a)
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        assert profile.above_minimum(sol.nodes) == ()

    def test_one_representative_above(self):
        # two isolated buses plus a dominated clique: the clique pick
        # sits above the minimum, everything else at it
        bits = np.eye(5, dtype=np.int8)
        for i in (2, 3, 4):
            for j in (2, 3, 4):
                bits[i, j] = 1
        a = adj(bits)
        profile = pp.average_profile(a)
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        above = profile.above_minimum(sol.nodes)
        assert sol.nodes == (1, 2, 3)
        assert above == (3,)
        assert len(above) <= 1

    def test_topological_14_bus_pattern_fails(self, cases):
        a = pp.topological_adjacency(cases["ieee14"])
        profile = pp.average_profile(a)
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        assert len(profile.above_minimum(sol.nodes)) > 1


class TestEmitReport:
    @pytest.fixture
    def sres(self, ieee9):
        cfg = RunConfig(case_path="unused", structure="electrical",
                        jacobian_mode="flat", mode="full")
        return run_structure(ieee9, "electrical", cfg,
                             pp.build_ybus(ieee9))

    def test_report_round_trips(self, sres, tmp_path):
        paths = pp.emit_report(pp.report_files(sres, tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["case"] == "ieee9"
        assert payload["n"] == 9 and payload["m"] == 9
        assert payload["structure"] == "electrical"
        assert payload["jacobian_mode"] == "flat"
        assert payload["pmu_count"] == sres.solution.count
        assert payload["ilp_buses"] == [
            sres.case.external_id(b) for b in sres.solution.nodes]
        assert len(payload["lambda"]) == 9
        assert len(payload["sigma"]) == 9
        assert payload["lambda_min"] == min(payload["lambda"])
        assert len(payload["source_checksum"]) == 64
        assert {p.name for p in paths} == {
            "report.json", "fig_lambda.csv", "fig_sigma.csv",
            "fig_assignment.csv"}

    def test_counts_not_recomputed(self, sres, tmp_path):
        pp.emit_report(pp.report_files(sres, tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["pmu_count"] == len(payload["ilp_buses"])
        assert len(payload["svd_buses"]) == payload["pmu_count"]

    def test_fig_lambda_columns(self, sres, tmp_path):
        pp.emit_report(pp.report_files(sres, tmp_path))
        lines = (tmp_path / "fig_lambda.csv").read_text().splitlines()
        assert lines[0] == "bus,lambda,x"
        assert len(lines) == 10
        marked = [line for line in lines[1:] if line.endswith(",1")]
        assert len(marked) == sres.solution.count

    def test_fig_assignment_marks(self, sres, tmp_path):
        pp.emit_report(pp.report_files(sres, tmp_path))
        lines = (tmp_path / "fig_assignment.csv").read_text().splitlines()
        header = "vector_rank,vector_index,bus,abs_entry,assigned,assignment_rank"
        assert lines[0] == header
        assigned = [line for line in lines[1:]
                    if line.split(",")[4] == "1"]
        assert len(assigned) == sres.solution.count

    def test_conflict_entries_reference_real_vectors(self, sres, tmp_path):
        pp.emit_report(pp.report_files(sres, tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        for conflict in payload["conflicts"]:
            assert conflict["rank"] > 1
            assert conflict["assigned_bus"] != conflict["intended_bus"]
            assert conflict["assigned_bus"] in payload["svd_buses"]

    # fig_lambda.csv is a directory, so no report file is written.
    def test_failed_write_removes_its_files(self, sres, tmp_path):
        (tmp_path / "fig_lambda.csv").mkdir()
        with pytest.raises(ReportError):
            pp.emit_report(pp.report_files(sres, tmp_path))
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def reference_assignment_lines(art) -> list[str]:
    """fig_assignment.csv rendered with one f-string per entry: the
    bytes the writer must reproduce."""
    ids = [b.external_id for b in art.case.buses]
    lines = ["vector_rank,vector_index,bus,abs_entry,assigned,assignment_rank"]
    for pos, a in enumerate(art.ranking.selected, start=1):
        u = art.decomposition.u[:, a.vector_index - 1]
        for i, entry in enumerate(np.abs(u).tolist(), start=1):
            assigned = i == a.bus
            lines.append(f"{pos},{a.vector_index},{ids[i - 1]},{entry!r},"
                         f"{int(assigned)},{a.rank if assigned else 0}")
    return lines


@pytest.mark.parametrize("structure", ["topological", "electrical"])
@pytest.mark.parametrize("name", ["ieee9", "ieee118"])
def test_fig_assignment_bytes(cases, name, structure, tmp_path):
    case = cases[name]
    cfg = RunConfig(case_path="unused", structure=structure,
                    jacobian_mode="flat", mode="full")
    art = run_structure(case, structure, cfg, pp.build_ybus(case))
    pp.emit_report(pp.report_files(art, tmp_path))
    expected = "\n".join(reference_assignment_lines(art)) + "\n"
    assert (tmp_path / "fig_assignment.csv").read_bytes() == expected.encode()


def naive_matrix_lines(matrix: np.ndarray, case) -> list[str]:
    """A matrix dump rendered cell by cell from `tolist()`."""
    ids = [str(b.external_id) for b in case.buses]

    def cell(v):
        return f"{v.real!r}{v.imag:+}j" if isinstance(v, complex) else repr(v)
    return ["bus," + ",".join(ids)] + [
        f"{label}," + ",".join(cell(v) for v in row)
        for label, row in zip(ids, matrix.tolist())]


def id_case(n: int) -> SimpleNamespace:
    """The one thing `matrix_lines` reads of a case: its buses' ids."""
    return SimpleNamespace(buses=[SimpleNamespace(external_id=10 * i + 7)
                                  for i in range(n)])


# Signed zeros, NaN, infinities, subnormals and the extremes, drawn
# often enough that matrices repeat them.
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"),
                  -float("inf"), 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e+308, 0.1, 1.0, -1.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
CELLS = {
    "float64": FLOATS,
    "int8": st.one_of(st.sampled_from([0, 1, -1, 127, -128]),
                      st.integers(-128, 127)),
    "complex128": st.builds(complex, FLOATS, FLOATS),
}
VIEWS = {
    "as-built": lambda m: m,
    "transpose": lambda m: m.T,
    "reversed-columns": lambda m: m[:, ::-1],
    "reversed-transpose": lambda m: m[::-1].T,
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matrix_lines_match_cell_by_cell_rendering(data):
    dtype = data.draw(st.sampled_from(sorted(CELLS)))
    n = data.draw(st.integers(1, 7))
    cells = data.draw(st.lists(CELLS[dtype], min_size=n * n,
                               max_size=n * n))
    matrix = VIEWS[data.draw(st.sampled_from(sorted(VIEWS)))](
        np.array(cells, dtype=dtype).reshape(n, n))
    assert list(report.matrix_lines(matrix, id_case(n))) == \
        naive_matrix_lines(matrix, id_case(n))


# Three bit patterns among 1600 cells, 0.0 and -0.0 two of them: the
# dump formats three numbers, not one per cell.
def test_each_bit_pattern_formatted_once(monkeypatch):
    matrix = np.zeros((40, 40))
    matrix[::3] = -0.0
    matrix[:, ::7] = 2.5
    case = id_case(40)
    expected = naive_matrix_lines(matrix, case)
    formatted = []

    def counting_repr(value):
        formatted.append(value)
        return repr(value)

    monkeypatch.setattr(report, "repr", counting_repr, raising=False)
    assert list(report.matrix_lines(matrix, case)) == expected
    assert 0 < len(formatted) <= 3


def contents(root: Path) -> dict[Path, bytes]:
    """Every file under `root` with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestWriter:
    """`emit_report` writes every file it is given or none."""

    def test_writes_every_file_and_nothing_else(self, tmp_path):
        files = [(tmp_path / "a.csv", ["1"]),
                 (tmp_path / "sub" / "b.csv", (line for line in "23"))]
        assert pp.emit_report(files) == [path for path, _ in files]
        assert contents(tmp_path) == {tmp_path / "a.csv": b"1\n",
                                      tmp_path / "sub" / "b.csv": b"2\n3\n"}

    # The directory is refused before any file is moved into place.
    def test_directory_target_keeps_earlier_files(self, tmp_path):
        (tmp_path / "a.csv").write_text("earlier\n")
        (tmp_path / "d").mkdir()
        before = contents(tmp_path)
        with pytest.raises(ReportError, match="is a directory"):
            pp.emit_report([(tmp_path / "a.csv", ["new"]),
                            (tmp_path / "d", ["x"])])
        assert contents(tmp_path) == before

    # The second file cannot be created below a regular file.
    def test_failed_write_keeps_earlier_files(self, tmp_path):
        (tmp_path / "a.csv").write_text("earlier\n")
        (tmp_path / "afile").write_text("")
        before = contents(tmp_path)
        with pytest.raises(ReportError, match="afile"):
            pp.emit_report([(tmp_path / "a.csv", ["new"]),
                            (tmp_path / "afile" / "b.csv", ["x"])])
        assert contents(tmp_path) == before

    # A plain write_text under the same umask is the reference; a
    # mkstemp-style temp file would leave 0600.
    @pytest.mark.parametrize("umask", [0o022, 0o027],
                             ids=["umask-022", "umask-027"])
    def test_mode_is_that_of_a_plain_write(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            (tmp_path / "plain").write_text("x\n")
            pp.emit_report([(tmp_path / "out.csv", ["x"]),
                            (tmp_path / "plain", ["y"])])
        finally:
            os.umask(old)
        for name in ("out.csv", "plain"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == \
                0o666 & ~umask

    # The temp files are found by watching them move into place; a run
    # whose outputs include one of those names, or that finds a file
    # there, must neither lose an output nor touch that file.
    def test_temp_never_meets_an_output_or_a_file(self, tmp_path,
                                                  monkeypatch):
        moved = []
        real_replace = Path.replace

        def replace(self, target):
            moved.append(self)
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", replace)
        pp.emit_report([(tmp_path / "a.csv", ["a"])])
        temp, = moved
        moved.clear()
        files = [(tmp_path / "a.csv", ["A"]), (temp, ["T"])]
        pp.emit_report(files)
        assert len(moved) == 2 and not set(moved) & {p for p, _ in files}
        assert contents(tmp_path) == {tmp_path / "a.csv": b"A\n",
                                      temp: b"T\n"}
        pp.emit_report([(tmp_path / "a.csv", ["B"])])
        assert contents(tmp_path) == {tmp_path / "a.csv": b"B\n",
                                      temp: b"T\n"}
