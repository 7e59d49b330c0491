"""Command-line behavior: exit codes, stage isolation, batch mode."""

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import pmuplace as pp
from pmuplace import cli, pipeline
from pmuplace.errors import AsymmetryWarning
from conftest import SINGULAR_JACOBIAN_CSV, TWO_SLACK_CDF

DATA = Path(pp.__file__).parent / "data"


@pytest.fixture(autouse=True)
def _quiet_asymmetry():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymmetryWarning)
        yield


def run_cli(*args):
    return cli.main(list(args))


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

    def test_nonconvergence_exit(self, tmp_path):
        code = run_cli("--case", str(DATA / "ieee14.txt"),
                       "--structure", "electrical", "--pf-max-iter", "0")
        assert code == 7

    # A singular Newton Jacobian stops the power flow (exit 7); a nan
    # reactance is rejected by the reader, at the line of the branch in
    # the joined bundle (exit 4).
    @pytest.mark.parametrize("x, code, where",
                             [("0.5", 7, ""), ("nan", 4, "line 12:")],
                             ids=["singular-jacobian", "nan-reactance"])
    def test_power_flow_failure_exit(self, tmp_path, capsys, x, code, where):
        text = SINGULAR_JACOBIAN_CSV.replace("1,2,0.0,0.5,", f"1,2,0.0,{x},")
        sections = text.split("\n\n")
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        for fname, section in zip(("case.toml", "buses.csv", "branches.csv"),
                                  sections):
            body = section.split("\n", 1)[1]
            (bundle / fname).write_text(body.rstrip("\n") + "\n")
        assert run_cli("--case", str(bundle),
                       "--structure", "electrical") == code
        assert where in capsys.readouterr().err

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", "x", "--cases-dir", "y")
        assert exc.value.code == 2

    def test_batch_requires_out(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--cases-dir", str(tmp_path))
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--pf-tol", "0", "pf_tol"), ("--pf-max-iter", "-1", "pf_max_iter"),
        ("--enumerate", "-1", "enumerate_cap")])
    def test_invalid_setting_is_usage_error(self, capsys, flag, value, field):
        with pytest.raises(SystemExit) as exc:
            run_cli("--case", str(DATA / "ieee9.txt"), flag, value)
        assert exc.value.code == 2
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("structure", "electric"), ("jacobian_mode", "dc"), ("mode", "fast"),
    ("enumerate_cap", -1), ("pf_max_iter", -1), ("pf_tol", 0.0),
    ("pf_tol", -1e-8), ("pf_tol", float("nan"))])
def test_run_config_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        pipeline.RunConfig(case_path="unused", **{field: value})


class TestStageIsolation:
    def test_count_mode_skips_decomposition(self, monkeypatch, tmp_path):
        calls = []

        def spy(matrix, source):
            calls.append(source)
            raise AssertionError("decomposition stage must not run")

        monkeypatch.setattr(pipeline, "compute_svd", spy)
        code = run_cli("--case", str(DATA / "ieee9.txt"), "--mode", "count",
                       "--out", str(tmp_path / "out"))
        assert code == 0
        assert calls == []

    def test_full_mode_uses_decomposition(self, monkeypatch):
        calls = []
        real = pipeline.compute_svd

        def spy(matrix, source):
            calls.append(source)
            return real(matrix, source)

        monkeypatch.setattr(pipeline, "compute_svd", spy)
        assert run_cli("--case", str(DATA / "ieee9.txt"),
                       "--structure", "both", "--mode", "full") == 0
        assert calls == ["admittance", "distance"]

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
            lines = (tmp_path / name).read_text().splitlines()
            parsed = np.array([[number(c) for c in line.split(",")[1:]]
                               for line in lines[1:]])
            assert np.array_equal(parsed, exact), name

    def test_complex_dump_formats_every_cell(self, tmp_path, ieee9):
        # Signed zeros compare equal but must be written apart.
        rng = np.random.default_rng(9)
        y = np.where(rng.random((9, 9)) < 0.5, 0j,
                     rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        y[0, :4] = [complex(0.0, 0.0), complex(-0.0, 0.0),
                    complex(0.0, -0.0), complex(-0.0, -0.0)]
        path = pipeline._dump_matrix(tmp_path / "y.csv", y, ieee9)
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
        assert "error:" in broken
        assert any(line.startswith("ieee9,9,3") for line in lines)

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
