"""Command-line behavior: exit codes, stage isolation, batch mode."""

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pmuplace as pp
from pmuplace import cli, errors, pipeline, report
from conftest import (BUNDLED, PARALLEL_PAIR_CSV, SINGULAR_JACOBIAN_CSV,
                      TWO_BUS_CDF, TWO_SLACK_CDF, load_tied, write_bundle)

DATA = Path(pp.__file__).parent / "data"


def run_cli(*args):
    return cli.main(list(args))


def read_dump(path: Path, number) -> np.ndarray:
    """A matrix dump parsed back, each cell with `number`."""
    lines = path.read_text().splitlines()
    return np.array([[number(c) for c in line.split(",")[1:]]
                     for line in lines[1:]])


def with_latin1_byte(text: str, line_no: int) -> bytes:
    """`text` as UTF-8 with a Latin-1 "e acute" (0xe9) ending line
    `line_no`."""
    lines = text.encode().split(b"\n")
    lines[line_no - 1] += b"\xe9"
    return b"\n".join(lines)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = run_cli("--case", str(DATA / "ieee9.txt"), "--mode", "count",
                       "--structure", "topological",
                       "--out", str(tmp_path / "out"))
        assert code == 0
        assert "optimal monitor count: 3" in capsys.readouterr().out

    def test_missing_case_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--case", str(tmp_path / "nope.txt"),
                       "--out", str(out))
        assert code == 3
        assert not out.exists()  # no partial files
        assert "error:" in capsys.readouterr().err

    def test_invalid_model(self, tmp_path, capsys):
        bad = tmp_path / "twoslack.txt"
        bad.write_text(TWO_SLACK_CDF)
        assert run_cli("--case", str(bad)) == 5

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "garbage.txt"
        bad.write_text("not a case file\nat all\n")
        assert run_cli("--case", str(bad)) == 4

    def test_non_utf8_case_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(with_latin1_byte((DATA / "ieee9.txt").read_text(), 3))
        assert run_cli("--case", str(bad)) == 4
        assert "error: line 3: byte 0xe9 is not UTF-8" in \
            capsys.readouterr().err

    def test_non_utf8_bundle_member(self, tmp_path, capsys):
        bundle = write_bundle(tmp_path / "bundle", SINGULAR_JACOBIAN_CSV)
        member = bundle / "branches.csv"
        member.write_bytes(with_latin1_byte(member.read_text(), 2))
        assert run_cli("--case", str(bundle)) == 4
        assert "error: branches.csv line 2: byte 0xe9 is not UTF-8" in \
            capsys.readouterr().err

    # The solved operating point of this bundle meets a singular Newton
    # Jacobian; the flat one needs no power flow.
    def test_nonconvergence_exit(self, tmp_path, capsys):
        bundle = write_bundle(tmp_path / "bundle", SINGULAR_JACOBIAN_CSV)
        assert run_cli("--case", str(bundle)) == 7
        assert "error: power flow did not converge" in capsys.readouterr().err
        assert run_cli("--case", str(bundle), "--jacobian", "flat") == 0

    # A singular Newton Jacobian stops the power flow (exit 7); a nan
    # reactance is rejected by the reader, at the branch's own line of
    # branches.csv (exit 4).
    @pytest.mark.parametrize("x, code, where",
                             [("0.5", 7, ""),
                              ("nan", 4, "error: branches.csv line 2:")],
                             ids=["singular-jacobian", "nan-reactance"])
    def test_power_flow_failure_exit(self, tmp_path, capsys, x, code, where):
        text = SINGULAR_JACOBIAN_CSV.replace("1,2,0.0,0.5,", f"1,2,0.0,{x},")
        bundle = write_bundle(tmp_path / "bundle", text)
        assert run_cli("--case", str(bundle),
                       "--structure", "electrical") == code
        assert where in capsys.readouterr().err

    def test_bundle_errors_name_file_and_line(self, tmp_path, capsys):
        text = SINGULAR_JACOBIAN_CSV.replace("mva_base = 100.0",
                                             "mva_base = inf")
        bundle = write_bundle(tmp_path / "bundle", text)
        assert run_cli("--case", str(bundle)) == 4
        assert "error: case.toml line 2:" in capsys.readouterr().err
        text = SINGULAR_JACOBIAN_CSV.replace("1,2,0.0,0.5,", "1,3,0.0,0.5,")
        bundle = write_bundle(tmp_path / "unknown", text)
        assert run_cli("--case", str(bundle)) == 5
        assert "branches.csv line 2: branch references unknown bus 3" in \
            capsys.readouterr().err

    # 1/x and 1/tap^2 overflow; the model is rejected before any stage
    # computes with the infinity.
    @pytest.mark.parametrize("x, tap", [("1e-320", "1.0"), ("0.5", "1e-160")],
                             ids=["x", "tap"])
    @pytest.mark.parametrize("structure, jacobian", [
        ("topological", "solved"), ("electrical", "solved"),
        ("electrical", "flat")])
    def test_non_finite_admittance_is_invalid_model(self, tmp_path, capsys,
                                                    x, tap, structure,
                                                    jacobian):
        text = SINGULAR_JACOBIAN_CSV.replace("1,2,0.0,0.5,0.0,1.0,",
                                             f"1,2,0.0,{x},0.0,{tap},")
        bundle = write_bundle(tmp_path / "bundle", text)
        assert run_cli("--case", str(bundle), "--structure", structure,
                       "--jacobian", jacobian) == 5
        assert "error: singular: branch 1-2 has a non-finite admittance" in \
            capsys.readouterr().err

    # 1e200 squares to inf: the pi model would leave the branch
    # electrically open while the topological path still counts it.
    @pytest.mark.parametrize("structure, jacobian", [
        ("topological", "solved"), ("electrical", "solved"),
        ("electrical", "flat")])
    def test_overflowing_tap_is_invalid_model(self, tmp_path, capsys,
                                              structure, jacobian):
        text = SINGULAR_JACOBIAN_CSV.replace("1,2,0.0,0.5,0.0,1.0,",
                                             "1,2,0.0,0.5,0.0,1e200,")
        bundle = write_bundle(tmp_path / "bundle", text)
        assert run_cli("--case", str(bundle), "--structure", structure,
                       "--jacobian", jacobian) == 5
        assert "error: singular: branch 1-2 has tap ratio 1e+200, too large" \
            in capsys.readouterr().err

    # A path below a regular file cannot be created.
    @pytest.mark.parametrize("source, flag", [("--case", "--dump-ybus"),
                                              ("--cases-dir", "--out")],
                             ids=["dump", "summary"])
    def test_unwritable_output_is_report_error(self, tmp_path, capsys,
                                               source, flag):
        afile = tmp_path / "afile"
        afile.write_text("")
        cases = tmp_path / "cases"
        cases.mkdir()
        shutil.copy(DATA / "ieee9.txt", cases)
        path = cases / "ieee9.txt" if source == "--case" else cases
        assert run_cli(source, str(path), flag, str(afile / "o")) == 10
        assert f"error: {afile / 'o'}" in capsys.readouterr().err

    def test_regulated_bus_without_voltage_is_invalid_model(self, tmp_path,
                                                            capsys):
        bad = tmp_path / "novoltage.txt"
        bad.write_text(TWO_BUS_CDF.replace("  3 1.0000", "  3 -1.000"))
        assert run_cli("--case", str(bad)) == 5
        err = capsys.readouterr().err
        assert "bus 1: regulated bus with non-positive voltage -1.0" in err
        assert "line 0" not in err

    def test_parallel_circuits_electrical(self, tmp_path, capsys):
        # Two circuits between the only two buses: more branches than
        # bus pairs, so every pair is linked.
        bundle = write_bundle(tmp_path / "pair", PARALLEL_PAIR_CSV)
        assert run_cli("--case", str(bundle), "--structure", "electrical",
                       "--out", str(tmp_path / "out")) == 0
        assert "optimal monitor count: 1" in capsys.readouterr().out

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", "x", "--cases-dir", "y")
        assert exc.value.code == 2

    def test_batch_requires_out(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--cases-dir", str(tmp_path))
        assert exc.value.code == 2

    # Every cell of every case would write the one dump path, the
    # summary has no column for listed optima, and every case runs both
    # structures under both operating points.
    @pytest.mark.parametrize("flag, value", [
        ("--dump-distance", "e.csv"), ("--dump-ybus", "y.csv"),
        ("--dump-adjacency", "b.csv"), ("--enumerate", "3"),
        ("--structure", "topological"), ("--jacobian", "flat")])
    def test_batch_rejects_lost_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("--cases-dir", str(tmp_path), "--out", str(out),
                    flag, value)
        assert exc.value.code == 2
        assert "--cases-dir" in capsys.readouterr().err
        assert not out.exists()

    # Both would write their reports under out/ieee9.
    @pytest.mark.parametrize("other", ["ieee9.cdf", "ieee9"])
    def test_batch_rejects_two_cases_of_one_name(self, tmp_path, capsys,
                                                 other):
        cases = tmp_path / "cases"
        cases.mkdir()
        shutil.copy(DATA / "ieee9.txt", cases)
        if other.endswith(".cdf"):
            shutil.copy(DATA / "ieee9.txt", cases / other)
        else:
            write_bundle(cases / other, PARALLEL_PAIR_CSV)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("--cases-dir", str(cases), "--out", str(out))
        assert exc.value.code == 2
        assert f"two cases named 'ieee9': {other} and ieee9.txt" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_place_mode_removed(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(DATA / "ieee9.txt"), "--mode", "place")
        assert exc.value.code == 2

    # The power flow runs with `solve_power_flow`'s own limits; the
    # command line has no flag for them.
    def test_power_flow_limit_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(DATA / "ieee9.txt"), "--pf-tol", "1e-6")
        assert exc.value.code == 2
        assert "unrecognized arguments: --pf-tol 1e-6" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--enumerate", "-1", "enumerate_cap")])
    def test_invalid_setting_is_usage_error(self, capsys, flag, value, field):
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(DATA / "ieee9.txt"), flag, value)
        assert exc.value.code == 2
        assert field in capsys.readouterr().err

    # An empty path would name the current directory or be skipped.
    @pytest.mark.parametrize("args, field", [
        (["--case", ""], "case_path"),
        (["--cases-dir", "", "--out", "o"], "case_path"),
        (["--out", ""], "output_dir"),
        (["--dump-distance", ""], "dump_distance"),
        (["--dump-ybus", ""], "dump_ybus"),
        (["--dump-adjacency", ""], "dump_adjacency")],
        ids=["case", "cases-dir", "out", "dump-distance", "dump-ybus",
             "dump-adjacency"])
    def test_empty_path_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                       args, field):
        if args[0] not in ("--case", "--cases-dir"):
            args = ["--case", str(DATA / "ieee9.txt")] + args
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 2
        assert f"{field} must be a non-empty path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # The two dumps would overwrite each other; under `both` the
    # adjacency dump's prefixed name can meet the distance dump's path.
    @pytest.mark.parametrize("args, shared", [
        (["--structure", "electrical", "--mode", "count",
          "--dump-distance", "x.csv", "--dump-adjacency", "x.csv"], "x.csv"),
        (["--structure", "electrical", "--dump-distance", "x.csv",
          "--dump-adjacency", "./x.csv"], "x.csv"),
        (["--structure", "both", "--dump-distance", "electrical_x.csv",
          "--dump-adjacency", "x.csv"], "electrical_x.csv"),
        (["--structure", "electrical", "--out", "o", "--dump-distance",
          "d/x.csv", "--dump-ybus", "d/x.csv"], "d/x.csv")],
        ids=["one-structure", "spelled-apart", "both", "new-directories"])
    def test_two_outputs_at_one_path_is_usage_error(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    args, shared):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(DATA / "ieee9.txt"), *args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert " wrote " not in captured.out
        assert f"would be written to {(tmp_path / shared).resolve()}" in \
            captured.err
        assert list(tmp_path.iterdir()) == []

    # An output at a file the run reads would replace its own input: the
    # case file, or any table of a bundle, however the path is spelled.
    @pytest.mark.parametrize("source, args, target", [
        ("cdf", ["--structure", "topological", "--mode", "count",
                 "--dump-ybus", "ieee9.txt"], "ieee9.txt"),
        ("cdf", ["--structure", "electrical", "--dump-distance",
                 "./ieee9.txt"], "ieee9.txt"),
        ("bundle", ["--structure", "electrical", "--mode", "count",
                    "--dump-adjacency", "grid/branches.csv"],
         "grid/branches.csv"),
        ("bundle", ["--dump-ybus", "grid/../grid/case.toml"],
         "grid/case.toml")],
        ids=["cdf-ybus", "cdf-distance", "bundle-adjacency", "bundle-ybus"])
    def test_output_at_an_input_is_usage_error(self, tmp_path, monkeypatch,
                                               capsys, source, args, target):
        monkeypatch.chdir(tmp_path)
        if source == "cdf":
            case = Path(shutil.copy(DATA / "ieee9.txt", tmp_path))
            inputs = [case]
        else:
            case = write_bundle(tmp_path / "grid", pp.dumps_csv_fallback(
                pp.load_bundled_case("ieee9")))
            inputs = sorted(case.iterdir())
        assert tmp_path / target in inputs
        before = {path: path.read_bytes() for path in inputs}
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(case), *args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert " wrote " not in captured.out
        assert f"would overwrite its input {(tmp_path / target).resolve()}" \
            in captured.err
        assert {path: path.read_bytes() for path in inputs} == before
        assert sorted(tmp_path.rglob("*")) == sorted(
            {*inputs, *(path.parent for path in inputs)} - {tmp_path})

    # The type code is checked on its own line, before the reader looks
    # for the branch section or a repeated id.
    @pytest.mark.parametrize("fault", ["no-branch-data", "duplicate-id"])
    def test_unknown_type_code_names_its_line(self, tmp_path, capsys, fault):
        lines = TWO_BUS_CDF.splitlines(keepends=True)
        unknown = lines[3].replace("   2 BUS 2         1  1  0",
                                   "   3 BUS 3         1  1  7")
        if fault == "duplicate-id":
            repeated = lines[3].replace("   2 BUS 2", "   1 BUS 2")
            lines[3:4] = [repeated, unknown]
        else:
            lines[4:] = [unknown, "-999\n"]
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(lines))
        assert run_cli("--case", str(bad)) == 4
        assert "error: line 5: bus 3: unknown type code 7" in \
            capsys.readouterr().err

    def test_distance_dump_without_distances_is_usage_error(self, tmp_path,
                                                            capsys):
        target = tmp_path / "e.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(DATA / "ieee9.txt"), "--structure",
                    "topological", "--dump-distance", str(target))
        assert exc.value.code == 2
        assert "dump_distance" in capsys.readouterr().err
        assert not target.exists()

    # A kernel that fails inside the SVD is a DecompositionError, not a
    # bare numpy exception.
    def test_svd_failure_is_decomposition_error(self, monkeypatch, capsys):
        def diverge(matrix):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", diverge)
        assert run_cli("--case", str(DATA / "ieee9.txt")) == 9
        assert capsys.readouterr().err == \
            "error: SVD failed to converge: SVD did not converge\n"

    # A cover search that finds no cover at the optimal count, or a
    # witness that leaves a bus unobserved, is a solver bug: Infeasible.
    def test_witness_without_a_cover_is_infeasible(self, monkeypatch,
                                                   capsys):
        real = pp.cover.optimal_count
        monkeypatch.setattr(pp.cover, "optimal_count",
                            lambda inst: real(inst) - 1)
        assert run_cli("--case", str(DATA / "ieee9.txt")) == 8
        assert capsys.readouterr().err == \
            "error: internal error: optimal witness extraction failed\n"

    def test_witness_that_is_no_cover_is_infeasible(self, monkeypatch,
                                                    capsys):
        # the first cover less its lowest bus
        real = pp.CoverInstance.first_cover
        monkeypatch.setattr(pp.CoverInstance, "first_cover",
                            lambda *args: (c := real(*args)) & (c - 1))
        assert run_cli("--case", str(DATA / "ieee9.txt")) == 8
        assert capsys.readouterr().err == \
            "error: solution leaves buses unobserved\n"


# Each failure class's exit status; a new class must be added here.
EXIT_CODES = {
    errors.PmuPlaceError: 1, errors.CaseError: 5, errors.MalformedRecord: 4,
    errors.MissingSection: 4, errors.DuplicateBusId: 5,
    errors.DuplicateSlack: 5, errors.MissingSlack: 5,
    errors.UnknownBusReference: 5, errors.InvalidBranch: 5,
    errors.DisconnectedNetwork: 6, errors.NonConvergence: 7,
    errors.SingularSubmatrix: 6, errors.SolverError: 8,
    errors.Infeasible: 8, errors.DecompositionError: 9,
    errors.ReportError: 10, errors.UsageError: 2,
}


@pytest.mark.parametrize("cls, code", EXIT_CODES.items(),
                         ids=[cls.__name__ for cls in EXIT_CODES])
def test_error_class_exit_code(cls, code):
    assert cls.exit_code == code
    assert cli._exit_code(cls.__new__(cls)) == code


def test_every_error_class_has_pinned_exit_code():
    assert set(EXIT_CODES) == {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.PmuPlaceError)}


@pytest.mark.parametrize("exc, code", [
    (FileNotFoundError("x"), 3), (PermissionError("x"), 3),
    (IsADirectoryError("x"), 3), (ValueError("x"), 1), (KeyError("x"), 1)],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_other_exception_exit_code(exc, code):
    assert cli._exit_code(exc) == code


@pytest.mark.parametrize("field, value", [
    ("structure", "electric"), ("jacobian_mode", "dc"), ("mode", "fast"),
    ("mode", "place"),
    ("enumerate_cap", -1), ("enumerate_cap", 2.5),
    ("case_path", ""), ("output_dir", ""), ("dump_distance", ""),
    ("dump_ybus", ""), ("dump_adjacency", ""),
    # The type is checked before the value: a bool is not a number and
    # a path is a str or os.PathLike.
    ("enumerate_cap", True),
    ("case_path", None), ("output_dir", 3)])
def test_run_config_rejects_bad_field(field, value):
    with pytest.raises(errors.UsageError, match=field):
        pipeline.RunConfig(**{"case_path": "unused", field: value})


def test_run_config_rejects_distance_dump_without_distances():
    with pytest.raises(ValueError, match="dump_distance"):
        pipeline.RunConfig(case_path="unused", structure="topological",
                           dump_distance="e.csv")
    for structure in ("electrical", "both"):
        pipeline.RunConfig(case_path="unused", structure=structure,
                           dump_distance="e.csv")


# RunConfig holds the only defaults: every setting's flag stores into
# the field of that name and leaves it None when not given.
def test_parser_settings_are_run_config_fields_without_defaults():
    settings = {action.dest: action.default
                for action in cli.build_parser()._actions
                if action.dest not in ("case", "cases_dir", "help")}
    fields = {f.name for f in dataclasses.fields(pipeline.RunConfig)}
    assert settings == dict.fromkeys(fields - {"case_path"})


# A batch runs each case under every structure and operating point and
# writes one summary row; the template may ask for nothing else.
@pytest.mark.parametrize("field, value", [
    ("output_dir", None), ("dump_distance", "e.csv"), ("dump_ybus", "y.csv"),
    ("dump_adjacency", "b.csv"), ("enumerate_cap", 3),
    ("structure", "topological"), ("jacobian_mode", "flat")])
def test_run_batch_refuses_template_before_writing(tmp_path, field, value):
    cases = tmp_path / "cases"
    cases.mkdir()
    shutil.copy(DATA / "ieee9.txt", cases)
    settings = {"output_dir": tmp_path / "out", field: value}
    if field.startswith("dump_"):
        settings[field] = tmp_path / value
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(errors.UsageError,
                       match=rf"^batch \(--cases-dir\) .*{field}"):
        pipeline.run_batch(pipeline.RunConfig(case_path=cases, **settings))
    assert sorted(tmp_path.rglob("*")) == before


class TestStageIsolation:
    def test_count_mode_skips_decomposition(self, monkeypatch, tmp_path):
        calls = []

        def spy(matrix):
            calls.append(matrix)
            raise AssertionError("decomposition stage must not run")

        monkeypatch.setattr(pipeline, "compute_svd", spy)
        code = run_cli("--case", str(DATA / "ieee9.txt"), "--mode", "count",
                       "--out", str(tmp_path / "out"))
        assert code == 0
        assert calls == []

    def test_full_mode_uses_decomposition(self, monkeypatch):
        calls = []
        real = pipeline.compute_svd

        def spy(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(pipeline, "compute_svd", spy)
        assert run_cli("--case", str(DATA / "ieee9.txt"),
                       "--structure", "both", "--mode", "full") == 0
        # the complex admittance matrix, then the real distance matrix
        ybus = pp.build_ybus(pp.load_case(DATA / "ieee9.txt"))
        assert [m.shape for m in calls] == [(9, 9), (9, 9)]
        assert np.array_equal(calls[0], ybus)
        assert not np.iscomplexobj(calls[1])
        assert np.all(np.diag(calls[1]) == 0) and np.all(calls[1] >= 0)

    def test_flat_mode_skips_power_flow(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("power flow must not run in flat mode")

        monkeypatch.setattr(pipeline, "solve_power_flow", boom)
        assert run_cli("--case", str(DATA / "ieee9.txt"),
                       "--structure", "electrical", "--jacobian", "flat",
                       "--mode", "count") == 0


class TestOutputs:
    def test_full_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--case", str(DATA / "ieee9.txt"),
                       "--structure", "both", "--jacobian", "flat",
                       "--out", str(out))
        assert code == 0
        for structure in ("topological", "electrical"):
            payload = json.loads(
                (out / structure / "report.json").read_text())
            assert payload["structure"] == structure

    # The writer resolves each output and the case file once; the
    # pipeline resolves none.
    def test_each_output_resolved_once(self, tmp_path, monkeypatch):
        resolved = []
        real_resolve = Path.resolve

        def resolve(self, *args, **kwargs):
            resolved.append(self)
            return real_resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", resolve)
        result = pipeline.run(pipeline.RunConfig(
            case_path=DATA / "ieee9.txt", structure="both", mode="full",
            output_dir=tmp_path / "out",
            dump_distance=tmp_path / "e.csv", dump_ybus=tmp_path / "y.csv",
            dump_adjacency=tmp_path / "b.csv"))
        written = [path for sres in result.per_structure.values()
                   for path in sres.written]
        assert len(written) == 12
        assert sorted(resolved) == sorted(written + [DATA / "ieee9.txt"])

    def test_dump_flags(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("--case", str(DATA / "ieee9.txt"),
                       "--structure", "electrical", "--jacobian", "flat",
                       "--out", str(out),
                       "--dump-distance", str(tmp_path / "e.csv"),
                       "--dump-ybus", str(tmp_path / "y.csv"),
                       "--dump-adjacency", str(tmp_path / "b.csv"))
        assert code == 0
        e_lines = (tmp_path / "e.csv").read_text().splitlines()
        assert e_lines[0] == "bus,1,2,3,4,5,6,7,8,9"
        assert len(e_lines) == 10
        # every dump parses back to the exact matrix the run used
        case = pp.load_case(DATA / "ieee9.txt")
        ybus = pp.build_ybus(case)
        g = pp.p_theta_jacobian(case, pp.flat_point(case), ybus=ybus)
        dist = pp.resistance_matrix(g, case.slack_index)
        bits = pp.electrical_adjacency(dist, case.m).bits
        for name, number, exact in (("y.csv", complex, ybus),
                                    ("e.csv", float, dist.e),
                                    ("b.csv", int, bits)):
            assert np.array_equal(read_dump(tmp_path / name, number),
                                  exact), name

    # A dump beside the case file, or inside the bundle directory, is
    # written as any other, and the case still reads as before.
    @pytest.mark.parametrize("source", ["cdf", "bundle"])
    def test_dump_beside_the_input_is_written(self, tmp_path, capsys,
                                              source):
        if source == "cdf":
            case = Path(shutil.copy(DATA / "ieee9.txt", tmp_path))
            dump = tmp_path / "ieee9.csv"
        else:
            case = write_bundle(tmp_path / "grid", pp.dumps_csv_fallback(
                pp.load_bundled_case("ieee9")))
            dump = case / "ybus.csv"
        before = {path: path.read_bytes()
                  for path in ([case] if case.is_file() else case.iterdir())}
        assert run_cli("--case", str(case), "--mode", "count",
                       "--dump-ybus", str(dump)) == 0
        assert f"wrote {dump}" in capsys.readouterr().out
        assert {path: path.read_bytes() for path in before} == before
        assert np.array_equal(read_dump(dump, complex),
                              pp.build_ybus(pp.load_case(case)))

    # The benchmark's count-export operation, on the grid it builds:
    # two IEEE-118 copies joined by a seeded tie line.
    def test_count_export_on_tied_grid(self, tmp_path, capsys):
        tied = load_tied()
        grid = tmp_path / "ieee118x2"
        tied.write_case(tied.tied_case(2, 1), grid)
        dumps = {name: tmp_path / f"{name}.csv"
                 for name in ("distance", "ybus", "adjacency")}
        assert run_cli("--case", str(grid), "--structure", "electrical",
                       "--jacobian", "solved", "--mode", "count",
                       "--dump-distance", str(dumps["distance"]),
                       "--dump-ybus", str(dumps["ybus"]),
                       "--dump-adjacency", str(dumps["adjacency"])) == 0
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if " wrote " in line]
        assert wrote == [f"[electrical] wrote {dumps[name]}"
                         for name in ("distance", "ybus", "adjacency")]
        case = pp.load_case(grid)
        ybus = pp.build_ybus(case)
        g = pp.p_theta_jacobian(case, pp.solve_power_flow(case, ybus=ybus),
                                ybus=ybus)
        dist = pp.resistance_matrix(g, case.slack_index)
        bits = pp.electrical_adjacency(dist, case.m).bits
        for name, number, exact in (("ybus", complex, ybus),
                                    ("distance", float, dist.e),
                                    ("adjacency", int, bits)):
            assert np.array_equal(read_dump(dumps[name], number),
                                  exact), name

    # Bus ids that decrease along the file: every bus list in the
    # reports and on stdout keeps the file order.
    def test_bus_lists_keep_file_order(self, tmp_path, capsys):
        base = pp.load_bundled_case("ieee14")
        buses = tuple(dataclasses.replace(b, external_id=100 - b.index)
                      for b in base.buses)
        case = dataclasses.replace(base, buses=buses)
        bundle = write_bundle(tmp_path / "reversed",
                              pp.dumps_csv_fallback(case))
        out = tmp_path / "out"
        assert run_cli("--case", str(bundle), "--structure", "both",
                       "--out", str(out)) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if "placement buses" in line]
        expected = []
        for structure in ("topological", "electrical"):
            payload = json.loads(
                (out / structure / "report.json").read_text())
            for field in ("ilp_buses", "svd_buses"):
                assert payload[field] == sorted(payload[field],
                                                reverse=True), field
            expected.append(f"[{structure}] placement buses: "
                            f"{payload['svd_buses']}")
        assert printed == expected

    # Reports go to one directory per structure, the Y-bus is written
    # once, under the first structure, and each adjacency dump carries
    # its structure's name.
    def test_file_layout_under_both(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("--case", str(DATA / "ieee14.txt"),
                       "--structure", "both", "--out", "o",
                       "--dump-distance", "e.csv", "--dump-ybus", "y.csv",
                       "--dump-adjacency", "b.csv") == 0
        reports = ["report.json", "fig_lambda.csv", "fig_sigma.csv",
                   "fig_assignment.csv"]
        expected = [("topological", f"o/topological/{name}")
                    for name in reports]
        expected += [("topological", "y.csv"),
                     ("topological", "topological_b.csv")]
        expected += [("electrical", f"o/electrical/{name}")
                     for name in reports]
        expected += [("electrical", "e.csv"),
                     ("electrical", "electrical_b.csv")]
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if " wrote " in line]
        assert wrote == [f"[{s}] wrote {path}" for s, path in expected]
        files = {p.relative_to(tmp_path).as_posix()
                 for p in tmp_path.rglob("*") if p.is_file()}
        assert files == {path for _, path in expected}

    # Every stage of every structure runs before the first file is
    # written: the topological structure succeeds, the power flow fails.
    def test_failed_run_writes_nothing(self, tmp_path, monkeypatch, capsys):
        bundle = write_bundle(tmp_path / "bundle", SINGULAR_JACOBIAN_CSV)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_cli("--case", str(bundle), "--out", "o",
                       "--dump-ybus", "y.csv",
                       "--dump-adjacency", "b.csv") == 7
        assert " wrote " not in capsys.readouterr().out
        assert list(work.iterdir()) == []
        with pytest.raises(errors.NonConvergence):
            pipeline.run(pipeline.RunConfig(case_path=bundle,
                                            output_dir=work / "lib"))
        assert list(work.iterdir()) == []

    # The Y-bus dump cannot be written below a regular file, so no file
    # of the run is.
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("")
        assert run_cli("--case", str(DATA / "ieee9.txt"), "--structure",
                       "both", "--out", "o", "--dump-ybus",
                       "afile/y.csv") == 10
        assert " wrote " not in capsys.readouterr().out
        assert [p for p in Path("o").rglob("*") if p.is_file()] == []

    # fig_lambda.csv is a directory, so no report file is written.
    def test_failed_report_write_leaves_no_file(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        Path("o/fig_lambda.csv").mkdir(parents=True)
        assert run_cli("--case", str(DATA / "ieee9.txt"), "--structure",
                       "topological", "--out", "o") == 10
        assert " wrote " not in capsys.readouterr().out
        assert [p for p in Path("o").rglob("*") if p.is_file()] == []

    # A refused run (two outputs at one path) and a failed one (a dump
    # below a regular file) keep every file that was there before.
    @pytest.mark.parametrize("args, kept, code", [
        (["--structure", "electrical", "--mode", "count", "--dump-distance",
          "x.csv", "--dump-adjacency", "x.csv"], "x.csv", 2),
        (["--structure", "topological", "--out", "o", "--dump-adjacency",
          "afile/b.csv"], "o/report.json", 10)],
        ids=["two-outputs-at-one-path", "unwritable-dump"])
    def test_failed_run_keeps_earlier_files(self, tmp_path, monkeypatch,
                                            capsys, args, kept, code):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("a regular file\n")
        Path(kept).parent.mkdir(exist_ok=True)
        Path(kept).write_text("earlier\n")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file()}
        try:
            got = run_cli("--case", str(DATA / "ieee9.txt"), *args)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert " wrote " not in capsys.readouterr().out
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == before

    # Under `both` one dump path gives each adjacency dump its own name.
    def test_one_dump_path_under_both(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("--case", str(DATA / "ieee9.txt"), "--structure",
                       "both", "--mode", "count", "--dump-distance", "x.csv",
                       "--dump-adjacency", "x.csv") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "electrical_x.csv", "topological_x.csv", "x.csv"]
        assert read_dump(Path("x.csv"), float).shape == (9, 9)

    def test_figure_csvs_hold_exact_values(self, tmp_path):
        def rows(path):
            return [line.split(",")
                    for line in path.read_text().splitlines()[1:]]

        case_path = DATA / "ieee14.txt"
        assert run_cli("--case", str(case_path), "--structure", "both",
                       "--out", str(tmp_path)) == 0
        result = pipeline.run(pipeline.RunConfig(case_path=case_path))
        case = result.case
        ids = [case.external_id(i) for i in range(1, case.n + 1)]
        for structure, sres in result.per_structure.items():
            out = tmp_path / structure
            d = sres.decomposition
            lam = rows(out / "fig_lambda.csv")
            assert [int(r[0]) for r in lam] == ids
            assert [float(r[1]) for r in lam] == [
                s / (case.n - 1) for s in sres.adjacency.bits.sum(axis=1)]
            assert [float(r[1]) for r in rows(out / "fig_sigma.csv")] == \
                d.sigma.tolist()
            placed = rows(out / "fig_assignment.csv")
            assert len(placed) == case.n * sres.solution.count
            # |u| as the assignment reads it: the whole column at once.
            for _, vector, bus, entry, _, _ in placed:
                assert float(entry) == np.abs(
                    d.u[:, int(vector) - 1])[ids.index(int(bus))]

    def test_complex_dump_formats_every_cell(self, tmp_path, ieee9):
        # Signed zeros compare equal but must be written apart.
        rng = np.random.default_rng(9)
        y = np.where(rng.random((9, 9)) < 0.5, 0j,
                     rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        y[0, :4] = [complex(0.0, 0.0), complex(-0.0, 0.0),
                    complex(0.0, -0.0), complex(-0.0, -0.0)]
        path, = pp.emit_report([(tmp_path / "y.csv",
                                 report.matrix_lines(y, ieee9))])
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == \
            [[f"{v.real!r}{v.imag:+}j" for v in row] for row in y.tolist()]

    def test_enumerate_listing(self, capsys, tmp_path):
        code = run_cli("--case", str(DATA / "ieee9.txt"),
                       "--structure", "topological", "--mode", "count",
                       "--enumerate", "4", "--out", str(tmp_path / "o"))
        assert code == 0
        assert "optimal sets (cap 4)" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture
    def small_dir(self, tmp_path):
        d = tmp_path / "cases"
        d.mkdir()
        for name in ("ieee9", "ieee14"):
            shutil.copy(DATA / f"{name}.txt", d / f"{name}.txt")
        return d

    def test_summary_rows(self, small_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--cases-dir", str(small_dir), "--out", str(out))
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == ("case,n,topological_count,"
                            "electrical_count(solved),electrical_count(flat)")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["ieee9"][1:3] == ["9", "3"]
        assert rows["ieee14"][1:3] == ["14", "4"]

    def test_corrupt_file_recorded_batch_continues(self, small_dir,
                                                   tmp_path):
        (small_dir / "broken.txt").write_text("garbage\n")
        out = tmp_path / "out"
        assert run_cli("--cases-dir", str(small_dir),
                       "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        broken = next(line for line in lines if line.startswith("broken"))
        assert broken == ("broken,,error:MissingSection,"
                          "error:MissingSection,error:MissingSection")
        assert any(line.startswith("ieee9,9,3") for line in lines)

    def test_non_utf8_file_recorded_batch_continues(self, small_dir,
                                                    tmp_path):
        (small_dir / "latin1.txt").write_bytes(
            with_latin1_byte((DATA / "ieee9.txt").read_text(), 3))
        out = tmp_path / "out"
        assert run_cli("--cases-dir", str(small_dir),
                       "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert ("latin1,,error:MalformedRecord,error:MalformedRecord,"
                "error:MalformedRecord") in lines
        assert any(line.startswith("ieee9,9,3") for line in lines)
        assert any(line.startswith("ieee14,14,4") for line in lines)

    def test_ybus_failure_recorded_batch_continues(self, small_dir,
                                                   tmp_path):
        # 1e-300 squares to zero, so no admittance matrix can be built
        write_bundle(small_dir / "tiny", SINGULAR_JACOBIAN_CSV.replace(
            "1,2,0.0,0.5,0.0,1.0,", "1,2,0.0,0.5,0.0,1e-300,"))
        out = tmp_path / "out"
        assert run_cli("--cases-dir", str(small_dir),
                       "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert ("tiny,,error:InvalidBranch,error:InvalidBranch,"
                "error:InvalidBranch") in lines
        assert any(line.startswith("ieee9,9,3") for line in lines)

    def test_parallel_circuits_row(self, small_dir, tmp_path):
        write_bundle(small_dir / "pair", PARALLEL_PAIR_CSV)
        out = tmp_path / "out"
        assert run_cli("--cases-dir", str(small_dir),
                       "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert "pair,2,1,1,1" in lines
        assert any(line.startswith("ieee9,9,3") for line in lines)

    def test_other_entries_skipped(self, small_dir, tmp_path):
        (small_dir / "notes.md").write_text("not a case\n")
        (small_dir / "ieee30").mkdir()
        shutil.copy(DATA / "ieee30.txt", small_dir / "ieee30" / "buses.csv")
        out = tmp_path / "out"
        assert run_cli("--cases-dir", str(small_dir),
                       "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == \
            ["ieee14", "ieee9"]
        assert sorted(path.name for path in out.iterdir()) == \
            ["ieee14", "ieee9", "summary.csv"]

    def test_empty_directory_header_only(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        assert run_cli("--cases-dir", str(empty), "--out", str(out)) == 0
        assert (out / "summary.csv").read_text().splitlines() == [
            "case,n,topological_count,electrical_count(solved),"
            "electrical_count(flat)"]

    def test_batch_deterministic_bytes(self, small_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("--cases-dir", str(small_dir),
                           "--out", str(out)) == 0
            outs.append(out)
        files_a = sorted(p.relative_to(outs[0])
                         for p in outs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(outs[1])
                         for p in outs[1].rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


# A solved point's sensitivity matrix is not symmetric; distances use
# its Laplacian part by definition, which is nothing to warn of. Only a
# threshold tie warns, and no bundled case has one.
@pytest.mark.parametrize("jacobian", ["solved", "flat"])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_warns_of_nothing(name, jacobian):
    config = pp.RunConfig(case_path=DATA / f"{name}.txt", structure="both",
                          jacobian_mode=jacobian, mode="full")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pp.run(config)
    assert [str(w.message) for w in caught] == []


def test_default_cli_run_writes_nothing_to_stderr(tmp_path):
    """In its own interpreter, where warnings reach stderr as they do
    for a user."""
    env = {**os.environ, "PYTHONPATH": str(Path(pp.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from pmuplace import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", "--case",
         str(DATA / "ieee14.txt")],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
